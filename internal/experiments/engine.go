package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wbsim/internal/coherence"
	"wbsim/internal/core"
	"wbsim/internal/faults"
	"wbsim/internal/runner"
	"wbsim/internal/stats"
	"wbsim/internal/workload"
)

// Engine executes the simulations behind the figures: independent
// (workload, config, scale) jobs fan out across a bounded worker pool,
// and a memo cache keyed by the canonical simulation identity guarantees
// that a combination shared by several figures (Fig10Stalls, Fig10Time
// and Squashes all need SLM×OoOBase/OoOWB, the bench harness regenerates
// Fig8 twice) is simulated exactly once. Results are assembled by job
// index, so every table is byte-identical to the sequential output
// regardless of parallelism.
type Engine struct {
	parallel int
	memo     *runner.Memo[core.Results]
	wallNs   atomic.Int64

	mu       sync.Mutex
	failures []JobFailure
	cov      *coherence.CoverageAgg
}

// JobFailure records the identity of one failed simulation job: enough
// to reproduce it from the command line in one invocation.
type JobFailure struct {
	Label    string       `json:"label"`
	Workload string       `json:"workload"`
	Class    core.Class   `json:"class"`
	Variant  core.Variant `json:"variant"`
	Seed     uint64       `json:"seed"`
	Scale    int          `json:"scale"`
	Kind     string       `json:"kind"` // "hang", "panic", or "error"
	Err      string       `json:"error"`
}

// NewEngine returns an engine running at most parallel simulations
// concurrently; parallel <= 0 selects runner.DefaultParallel().
func NewEngine(parallel int) *Engine {
	if parallel <= 0 {
		parallel = runner.DefaultParallel()
	}
	return &Engine{parallel: parallel, memo: runner.NewMemo[core.Results](), cov: coherence.NewCoverageAgg()}
}

// Coverage returns the merged protocol-transition coverage of every
// simulation the engine has run (the -coverage view). Merging is
// commutative, so the aggregate is deterministic at any parallelism.
func (e *Engine) Coverage() *coherence.CoverageAgg {
	e.mu.Lock()
	defer e.mu.Unlock()
	agg := coherence.NewCoverageAgg()
	agg.Merge(e.cov)
	return agg
}

// Parallel reports the engine's worker bound.
func (e *Engine) Parallel() int { return e.parallel }

// Report returns the engine's execution counters: simulations actually
// run, calls served from the memo cache, the worker bound, and the
// cumulative wall-clock spent inside batches.
func (e *Engine) Report() *stats.Counters {
	c := stats.NewCounters()
	jobs, hits := e.memo.Stats()
	c.Set("engine.jobs-run", jobs)
	c.Set("engine.cache-hits", hits)
	c.Set("engine.parallel", uint64(e.parallel))
	c.Set("engine.wall-ms", uint64(e.wallNs.Load()/int64(time.Millisecond)))
	c.Set("engine.jobs-failed", uint64(len(e.Failures())))
	return c
}

// simJob identifies one simulation in a batch. label carries the
// (figure, workload, class/variant) identity used in error messages.
type simJob struct {
	label string
	w     workload.Workload
	cfg   core.Config
	scale int
}

// simKey canonicalizes everything that determines a simulation's result:
// workload name, scale, and the full machine configuration (with the
// CoreOverride and Faults pointers flattened to their contents so
// identical settings hash identically).
func simKey(name string, cfg core.Config, scale int) string {
	var override, plan string
	if cfg.CoreOverride != nil {
		override = fmt.Sprintf("%+v", *cfg.CoreOverride)
	}
	if cfg.Faults != nil {
		plan = fmt.Sprintf("%+v", *cfg.Faults)
	}
	flat := cfg
	flat.CoreOverride = nil
	flat.Faults = nil
	return fmt.Sprintf("%s|scale=%d|%+v|override=%s|plan=%s", name, scale, flat, override, plan)
}

// run executes a batch of jobs on the pool, memoizing by canonical key,
// and returns results indexed like jobs. A failed or panicked job fails
// alone: siblings in the batch run to completion (panic containment at
// the System.Run/workload.Run boundary turns panics into errors, and
// nothing here cancels the pool), every failure is recorded with its
// (workload, config, seed) identity for the engine report, and the
// lowest-index failure is returned — the same one a sequential loop
// would have surfaced.
func (e *Engine) run(jobs []simJob) ([]core.Results, error) {
	out := make([]core.Results, len(jobs))
	errs := make([]error, len(jobs))
	start := time.Now()
	_ = runner.ForEach(context.Background(), e.parallel, len(jobs), func(_ context.Context, i int) error {
		j := jobs[i]
		res, err := e.memo.Do(simKey(j.w.Name, j.cfg, j.scale), func() (core.Results, error) {
			_, res, err := workload.Run(j.w, j.cfg, j.scale)
			return res, err
		})
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", j.label, err)
			e.recordFailure(j, err)
			return nil // sibling jobs keep running
		}
		e.mu.Lock()
		e.cov.Merge(res.Coverage)
		e.mu.Unlock()
		out[i] = res
		return nil
	})
	e.wallNs.Add(time.Since(start).Nanoseconds())
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// recordFailure appends a failed job's identity to the engine report.
func (e *Engine) recordFailure(j simJob, err error) {
	f := JobFailure{
		Label:    j.label,
		Workload: j.w.Name,
		Class:    j.cfg.Class,
		Variant:  j.cfg.Variant,
		Seed:     j.cfg.Seed,
		Scale:    j.scale,
		Kind:     "error",
		Err:      err.Error(),
	}
	if se, ok := faults.AsSimError(err); ok {
		f.Kind = se.Kind.String()
	}
	e.mu.Lock()
	e.failures = append(e.failures, f)
	e.mu.Unlock()
}

// Failures returns the identities of every failed job so far, in the
// order recorded.
func (e *Engine) Failures() []JobFailure {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]JobFailure(nil), e.failures...)
}

// figConfig is the paper-default machine for a figure simulation.
func figConfig(class core.Class, v core.Variant, opt Options) core.Config {
	cfg := core.DefaultConfig(class, v)
	cfg.Cores = opt.Cores
	cfg.Seed = opt.Seed
	if opt.MaxCycles > 0 {
		cfg.MaxCycles = opt.MaxCycles
	}
	return cfg
}
