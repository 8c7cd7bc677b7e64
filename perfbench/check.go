package main

import (
	"errors"
	"fmt"

	"wbsim/internal/coherence"
	"wbsim/internal/coherence/check"
)

// The check workload is the model-checker headline: one operation is one
// exhaustive closure of the 2-core, 1-bank, 2-line, 2-ops-per-core space
// in squash mode with no reduction, the raw half of the nightly
// raw-versus-reduced cross-check. It runs the real directory and private
// cache tables through clone, fingerprint and dispatch, without the core
// pipeline or the mesh. Its input is the geometry alone: the state space
// is the same at every seed.
var checkModel = coherence.ModelConfig{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2}

// The closure's known size. A drift means the checker or the tables
// changed what they explore, which no speed-up may do.
const (
	checkStates      = 18111
	checkTransitions = 85402
	checkDepth       = 51
)

// checkWorkers is a fixed frontier width, so a run measures the same
// fan-out on any host.
const checkWorkers = 2

type checkBench struct {
	cfg check.Config
	ref *check.Result // the one-worker closure
}

func newCheckBench(uint64) (bench, error) {
	mode, ok := coherence.ModeByName("squash")
	if !ok {
		return nil, errors.New(`core mode "squash" is not registered`)
	}
	cfg := check.Config{Model: checkModel}
	cfg.Model.Mode = mode
	ref := check.Explore(cfg)
	if !ref.Passed() || !ref.Exhaustive {
		return nil, fmt.Errorf("reference closure: passed=%v exhaustive=%v", ref.Passed(), ref.Exhaustive)
	}
	if ref.States != checkStates || ref.Transitions != checkTransitions || ref.MaxDepth != checkDepth {
		return nil, fmt.Errorf("reference closure explored %d states, %d transitions, depth %d; want %d, %d, %d",
			ref.States, ref.Transitions, ref.MaxDepth, checkStates, checkTransitions, checkDepth)
	}
	cfg.Workers = checkWorkers
	return &checkBench{cfg: cfg, ref: ref}, nil
}

// setup builds the closure's input: the initial model and its canonical
// fingerprint.
func (b *checkBench) setup() { coherence.NewModel(b.cfg.Model).CanonicalFingerprint() }

func (b *checkBench) op() (float64, error) {
	res := check.Explore(b.cfg)
	if !res.Passed() || !res.Exhaustive || res.States != b.ref.States || res.Transitions != b.ref.Transitions ||
		res.Terminals != b.ref.Terminals || res.MaxDepth != b.ref.MaxDepth {
		return 0, fmt.Errorf("closure differs from the one-worker reference: passed=%v exhaustive=%v %d states, %d transitions, %d terminals, depth %d",
			res.Passed(), res.Exhaustive, res.States, res.Transitions, res.Terminals, res.MaxDepth)
	}
	return float64(res.States), nil
}

func (b *checkBench) layers(set func(string, float64)) {
	set("work_per_op", float64(b.ref.States))
	set("transitions_per_op", float64(b.ref.Transitions))
}
