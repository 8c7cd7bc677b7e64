package main

import (
	"errors"
	"fmt"
	"reflect"

	"wbsim/internal/core"
	"wbsim/internal/isa"
	"wbsim/internal/workload"
)

// The sim workload is the simulator-speed headline: one operation is one
// whole simulation of fft on the paper's 16-core SLM machine with
// out-of-order commit over WritersBlock coherence (the machine of
// BenchmarkSimulatorThroughput). fft is busy every cycle, so it stresses
// the core pipeline, the layer that dominates host time. The seed drives
// the mesh's delivery jitter: every seed is a different interleaving of
// the same amount of work.
const (
	simWorkload = "fft"
	simScale    = 1
	simJitter   = 2
)

type simBench struct {
	w   workload.Workload
	cfg core.Config

	// ref and refRegs are the cycle-accurate kernel's results for this
	// seed; every operation must reproduce them exactly.
	ref     core.Results
	refRegs [isa.NumRegs]uint64
}

func newSimBench(seed uint64) (bench, error) {
	w, ok := workload.Get(simWorkload)
	if !ok {
		return nil, fmt.Errorf("workload %q is not registered", simWorkload)
	}
	cfg := core.DefaultConfig(core.SLM, core.OoOWB)
	cfg.Seed = seed
	cfg.JitterMax = simJitter
	b := &simBench{w: w, cfg: cfg}

	// The oracle is the same machine on the cycle-accurate kernel, which
	// executes every cycle instead of skipping provably inert ones.
	oracle := cfg
	oracle.CycleAccurate = true
	sys, ref, err := workload.Run(w, oracle, simScale)
	if err != nil {
		return nil, fmt.Errorf("cycle-accurate reference run: %w", err)
	}
	if ref.Committed == 0 {
		return nil, errors.New("cycle-accurate reference run committed nothing")
	}
	b.ref, b.refRegs = ref, regDigest(sys)
	return b, nil
}

// setup builds the machine and loads the workload, as workload.Run does
// before it runs the machine.
func (b *simBench) setup() {
	sys := core.NewSystem(b.cfg, b.w.Build(b.cfg.Cores, simScale))
	if b.w.Init != nil {
		b.w.Init(sys.Memory, b.cfg.Cores, simScale)
	}
}

func (b *simBench) op() (float64, error) {
	sys, res, err := workload.Run(b.w, b.cfg, simScale)
	if err != nil {
		return 0, err
	}
	if !reflect.DeepEqual(res, b.ref) {
		return 0, fmt.Errorf("results differ from the cycle-accurate reference:\ngot:       %+v\nreference: %+v", res, b.ref)
	}
	if regDigest(sys) != b.refRegs {
		return 0, errors.New("architectural registers differ from the cycle-accurate reference")
	}
	return float64(res.Cycles), nil
}

func (b *simBench) layers(set func(string, float64)) {
	set("work_per_op", float64(b.ref.Cycles))
}

// regDigest folds every core's final architectural registers into one
// value per register.
func regDigest(sys *core.System) (d [isa.NumRegs]uint64) {
	for r := 1; r < isa.NumRegs; r++ {
		for i, c := range sys.Cores {
			d[r] ^= uint64(c.Reg(isa.Reg(r))) << (i % 64)
		}
	}
	return d
}
