package main

import (
	"errors"
	"fmt"

	"wbsim/internal/experiments"
	"wbsim/internal/mem"
	"wbsim/internal/stats"
	"wbsim/internal/workload"
)

// The sweep workload is the evaluation-sweep headline at a size that fits
// a run many times over: one operation regenerates Figure 9 on a fresh
// experiment engine, 40 simulations of the 20 evaluation workloads on the
// 4-core machine of `experiments all -cores 4 -scale 1` (about 2 s on one
// processor, against 12 s for all of it). It exercises the engine's job
// pool and many short simulations, where sim runs one long one. Its split
// of host time ranks the layers as the whole `experiments all` run does
// (core pipeline 56% against 63%, coherence 16% against 13%, allocation
// 14% against 12%, collection 10% against 7%); a 2-core subset of more
// figures gave coherence only 6%. The seed is the experiments' simulation
// seed.
const (
	sweepCores = 4
	sweepScale = 1
	// The timed sweeps run on one engine worker, as everything in the
	// benchmark runs on one processor; the reference runs on two, so every
	// operation also checks that the engine's output does not depend on
	// its fan-out.
	sweepParallel    = 1
	sweepRefParallel = 2
)

type sweepBench struct {
	opt experiments.Options

	// ref holds the table of the two-worker reference sweep, and
	// jobs/hits its engine counters; every operation must reproduce all
	// three.
	ref        string
	jobs, hits uint64
}

func newSweepBench(seed uint64) (bench, error) {
	b := &sweepBench{opt: experiments.Options{Cores: sweepCores, Scale: sweepScale, Seed: seed}}
	ref, rep, err := b.sweep(sweepRefParallel)
	if err != nil {
		return nil, fmt.Errorf("reference sweep: %w", err)
	}
	b.ref, b.jobs, b.hits = ref, rep.Get("engine.jobs-run"), rep.Get("engine.cache-hits")
	if b.jobs == 0 {
		return nil, errors.New("reference sweep ran no simulation")
	}
	return b, nil
}

// sweep regenerates the figure on a fresh engine with the given worker
// bound, returning the rendered table and the engine's counters.
func (b *sweepBench) sweep(parallel int) (string, *stats.Counters, error) {
	eng := experiments.NewEngine(parallel)
	t, err := eng.Fig9(b.opt)
	if err != nil {
		return "", nil, err
	}
	if f := eng.Failures(); len(f) > 0 {
		return "", nil, fmt.Errorf("%d simulations failed, first: %s: %s", len(f), f[0].Label, f[0].Err)
	}
	return t.String(), eng.Report(), nil
}

// setup builds the sweep's inputs: a fresh engine and every evaluation
// workload's programs and initial memory image.
func (b *sweepBench) setup() {
	experiments.NewEngine(sweepParallel)
	for _, w := range workload.Evaluation() {
		w.Build(b.opt.Cores, b.opt.Scale)
		if w.Init != nil {
			w.Init(mem.NewMemory(), b.opt.Cores, b.opt.Scale)
		}
	}
}

func (b *sweepBench) op() (float64, error) {
	out, rep, err := b.sweep(sweepParallel)
	if err != nil {
		return 0, err
	}
	if out != b.ref {
		return 0, errors.New("table differs from the reference sweep")
	}
	if jobs, hits := rep.Get("engine.jobs-run"), rep.Get("engine.cache-hits"); jobs != b.jobs || hits != b.hits {
		return 0, fmt.Errorf("engine ran %d simulations with %d cache hits, reference %d and %d", jobs, hits, b.jobs, b.hits)
	}
	return float64(b.jobs), nil
}

func (b *sweepBench) layers(set func(string, float64)) {
	set("work_per_op", float64(b.jobs))
	set("jobs_run", float64(b.jobs))
}
