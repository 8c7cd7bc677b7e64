// Command perfbench is the repository's benchmark. It measures the three
// things a user of wbsim waits for — one simulation, one evaluation
// sweep, one model-checker closure — on inputs made from a seed, checks
// every output against a reference, and, when traced, splits the host
// time of the same operations across the simulator's layers.
//
// Run it from the root of a checkout through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload sim --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones (endToEnd below); with --trace 1 they are the
// per-layer ones (perLayer below). Progress notes go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// A bench is one workload bound to the inputs of one seed. Its
// constructor builds the reference every operation is checked against.
type bench interface {
	// setup builds one operation's inputs from scratch.
	setup()
	// op runs one operation, checks its output against the reference,
	// and returns the work it did (see workloads).
	op() (work float64, err error)
	// layers reports the workload's own per-layer metrics.
	layers(set func(name string, v float64))
}

type workloadSpec struct {
	build func(seed uint64) (bench, error)
	// gcPercent mirrors the collector target of the command that runs
	// this kind of operation, so the benchmark pays the GC cost a user
	// pays (an explicit GOGC in the environment wins, as there).
	gcPercent int
}

// An operation's work, for work_per_s and work_per_op, is simulated
// cycles (sim), simulations run (sweep) or distinct states (check).
var workloads = map[string]workloadSpec{
	"sim":   {build: newSimBench, gcPercent: 400},
	"sweep": {build: newSweepBench, gcPercent: 400},
	"check": {build: newCheckBench, gcPercent: 1600},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user sees (--trace 0), as medians over the
// run and in reference-host time (calibrate.go).
var endToEnd = []metricDef{
	{"op_ms", "ms"},       // host time of one operation
	{"work_per_s", "1/s"}, // work per host second
	{"setup_s", "s"},      // time to build one operation's inputs
}

// perLayer are the metrics of single layers (--trace 1). A layer a
// workload does not run reads 0 there.
var perLayer = []metricDef{
	// Share of sampled host CPU time per layer (see profile.go).
	{"cpu_pct", "%"},
	{"coherence_pct", "%"},
	{"mesh_pct", "%"},
	{"kernel_pct", "%"},
	{"checker_pct", "%"},
	{"engine_pct", "%"},
	{"gc_pct", "%"},
	{"alloc_pct", "%"},
	{"other_pct", "%"},
	// Allocation per operation, measured without the profiler.
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	// Work done per operation.
	{"work_per_op", "count"},
	{"transitions_per_op", "count"},
	{"jobs_run", "count"},
}

const (
	// setupBatch is the least time one set-up sample spends building
	// inputs; short set-ups are repeated until it is reached (see
	// timeSetup).
	setupBatch = 20 * time.Millisecond
	// minOps is the least number of operations timed per phase, however
	// short --seconds is.
	minOps = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(mainExit()) }

func mainExit() int {
	name := flag.String("workload", "", "workload: sim, sweep or check")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "seconds of operations to time")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	spec, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload sim|sweep|check --seed N --seconds S --trace 0|1\n")
		return 2
	}
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(spec.gcPercent)
	}
	// One processor: on the shared 2-vCPU virtual machines the benchmark
	// was tuned on, a second processor (running the collector and the
	// workers beside the operation) made the same simulation's time swing
	// by ±15% from one operation to the next, against ±3% on one.
	runtime.GOMAXPROCS(1)

	start := time.Now()
	b, err := spec.build(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: reference built in %v\n", *name, *seed, time.Since(start).Round(time.Millisecond))

	d := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = measureLayers(b, d)
	} else {
		res, err = measureEndToEnd(b, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// phase is the outcome of timing operations back to back.
type phase struct {
	times     []float64 // seconds per successful operation
	rates     []float64 // work per second per successful operation
	cal       []float64 // seconds per calibration run (calibrate.go)
	setups    []float64 // set-up samples in reference-host seconds
	attempted int
	failed    int
}

// timeOps runs operations until d has passed (and at least minOps ran).
// With fresh set, each operation follows a set-up sample and a
// calibration run, and starts on a freshly collected heap, as it would in
// a process of its own, so the collector's work inside it does not depend
// on the operations before it. Without it, operations run back to back,
// as in a sweep.
func timeOps(b bench, d time.Duration, fresh bool) phase {
	var p phase
	deadline := time.Now().Add(d)
	for p.attempted < minOps || time.Now().Before(deadline) {
		if fresh {
			setup := timeSetup(b)
			cal := calibrated()
			p.cal = append(p.cal, cal)
			p.setups = append(p.setups, setup*calRef/cal)
		}
		t0 := time.Now()
		work, err := b.op()
		el := time.Since(t0).Seconds()
		p.attempted++
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: operation %d: %v\n", p.attempted, err)
			continue
		}
		p.times = append(p.times, el)
		p.rates = append(p.rates, work/el)
	}
	return p
}

func measureEndToEnd(b bench, d time.Duration) (*result, error) {
	if _, err := b.op(); err != nil { // warm-up: caches, lazy init
		return nil, fmt.Errorf("warm-up operation: %w", err)
	}
	p := timeOps(b, d, true)
	if len(p.times) == 0 {
		return nil, fmt.Errorf("all %d operations failed", p.attempted)
	}
	// Scale every host time to the reference host (calibrate.go).
	scale := calRef / quantile(p.cal, 0.5)
	fmt.Fprintf(os.Stderr, "perfbench: %d operations, quartiles %s ms measured; host at %.2f× reference speed\n",
		len(p.times), quartilesMS(p.times), scale)
	return &result{
		Correct:   p.failed == 0,
		Attempted: p.attempted,
		Failed:    p.failed,
		Metrics: map[string]metric{
			"op_ms":      {quantile(p.times, 0.5) * scale * 1000, "ms"},
			"work_per_s": {quantile(p.rates, 0.5) / scale, "1/s"},
			"setup_s":    {quantile(p.setups, 0.5), "s"},
		},
	}, nil
}

// measureLayers spends a third of d running operations for the
// allocation counts and the rest running them under the CPU profiler, so
// the split charges the collector with the work a sweep of operations
// makes for it, not with collections the benchmark forces.
func measureLayers(b bench, d time.Duration) (*result, error) {
	if _, err := b.op(); err != nil {
		return nil, fmt.Errorf("warm-up operation: %w", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain := timeOps(b, d/3, false)
	runtime.ReadMemStats(&after)

	prof, err := startProfile()
	if err != nil {
		return nil, err
	}
	profiled := timeOps(b, d-d/3, false)
	shares, err := prof.stop()
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	for _, def := range perLayer {
		m[def.name] = metric{0, def.unit}
	}
	set := func(name string, v float64) {
		def, ok := m[name]
		if !ok {
			panic("perfbench: unlisted per-layer metric " + name)
		}
		def.Value = v
		m[name] = def
	}
	for layer, pct := range shares {
		set(layer+"_pct", pct)
	}
	ops := float64(plain.attempted)
	set("alloc_mb_per_op", float64(after.TotalAlloc-before.TotalAlloc)/ops/1e6)
	set("allocs_per_op", float64(after.Mallocs-before.Mallocs)/ops)
	b.layers(set)
	failed := plain.failed + profiled.failed
	return &result{
		Correct:   failed == 0,
		Attempted: plain.attempted + profiled.attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// timeSetup returns the seconds one operation's inputs take to build:
// the median of the builds in a batch of setupBatch, each timed alone, so
// a collection or an interrupt that lands on one build does not move it.
// The end-to-end run reports the median of one such sample per operation,
// taken across the whole run like the operations themselves, because set-up
// times of microseconds swing with the host's load from second to second.
func timeSetup(b bench) float64 {
	var builds []float64
	for end := time.Now().Add(setupBatch); len(builds) == 0 || time.Now().Before(end); {
		t0 := time.Now()
		b.setup()
		builds = append(builds, time.Since(t0).Seconds())
	}
	return quantile(builds, 0.5)
}

// quantile returns the q-quantile of xs (0 the least, 1 the greatest),
// interpolating between neighbours.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quartilesMS renders the quartiles of xs (seconds) in milliseconds, for
// the progress note.
func quartilesMS(xs []float64) string {
	return fmt.Sprintf("%.1f/%.1f/%.1f", 1000*quantile(xs, 0.25), 1000*quantile(xs, 0.5), 1000*quantile(xs, 0.75))
}
