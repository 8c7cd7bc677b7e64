package core_test

import (
	"reflect"
	"testing"

	"wbsim/internal/core"
	"wbsim/internal/isa"
	"wbsim/internal/workload"
)

// TestIdleSkipMatchesCycleAccuratePaperMachine runs the per-core skip on
// the paper's machine — 16-core SLM fft, the simulator-speed benchmark —
// under WritersBlock and Tardis-lite out-of-order commit, and requires
// the run CycleAccurate produces: same cycles, Results (transition
// coverage included) and architectural registers.
func TestIdleSkipMatchesCycleAccuratePaperMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("16-core runs")
	}
	w, ok := workload.Get("fft")
	if !ok {
		t.Fatal("fft is not registered")
	}
	for _, v := range []core.Variant{core.OoOWB, core.OoOTardis} {
		t.Run(string(v), func(t *testing.T) {
			run := func(accurate bool) (core.Results, [isa.NumRegs]uint64, uint64) {
				cfg := core.DefaultConfig(core.SLM, v)
				cfg.Seed = 1
				cfg.JitterMax = 2
				cfg.CycleAccurate = accurate
				sys, res, err := workload.Run(w, cfg, 1)
				if err != nil {
					t.Fatalf("accurate=%v: %v", accurate, err)
				}
				var regs [isa.NumRegs]uint64
				for r := 1; r < isa.NumRegs; r++ {
					for i, c := range sys.Cores {
						regs[r] ^= uint64(c.Reg(isa.Reg(r))) << i
					}
				}
				return res, regs, sys.IdleSkips()
			}
			accRes, accRegs, _ := run(true)
			res, regs, skips := run(false)
			if skips == 0 {
				t.Error("the per-core idle skip never fired")
			}
			if res.Cycles != accRes.Cycles {
				t.Errorf("idle-skip cycles: %d, cycle-accurate %d", res.Cycles, accRes.Cycles)
			}
			if !reflect.DeepEqual(res.Coverage, accRes.Coverage) {
				t.Error("idle-skip transition coverage diverges")
			}
			res.Coverage, accRes.Coverage = nil, nil
			if res != accRes {
				t.Errorf("idle-skip results diverge:\ngot:            %+v\ncycle-accurate: %+v", res, accRes)
			}
			if regs != accRegs {
				t.Error("idle-skip: architectural registers diverge")
			}
		})
	}
}
