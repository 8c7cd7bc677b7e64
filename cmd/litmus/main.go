// Command litmus runs the TSO litmus suite on the simulated machine and
// reports the outcome histograms, flagging any forbidden outcome.
//
// Usage:
//
//	litmus                 # full suite under every sound variant
//	litmus -test MP        # one test
//	litmus -unsafe         # also demonstrate violations under ooo-unsafe
//	litmus -seeds 200      # more interleavings
//	litmus -parallel 8     # fan seeds across 8 workers (outcomes unchanged)
//	litmus -chaos          # fault-plan × suite × seeds campaign
//	litmus -chaos -plans delay-spikes,reorder -seeds 8
//	litmus -plan hostile -test MP -seeds 1 -max-cycles 1000000
//
// The last form replays one (plan, test, seed) cell — e.g. a hang found
// by the chaos campaign — in a single invocation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wbsim/internal/coherence"
	"wbsim/internal/core"
	"wbsim/internal/faults"
	"wbsim/internal/litmus"
	"wbsim/internal/profiling"
	"wbsim/internal/sim"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name      = flag.String("test", "", "run only the named test")
		seeds     = flag.Int("seeds", 60, "independent runs per test/variant")
		jitter    = flag.Int("jitter", 24, "max random extra network latency")
		parallel  = flag.Int("parallel", 0, "max concurrent seed simulations (<=0: GOMAXPROCS)")
		unsafe    = flag.Bool("unsafe", false, "also run the ooo-unsafe violation demo")
		chaos     = flag.Bool("chaos", false, "run the fault-plan chaos campaign instead of the plain suite")
		plans     = flag.String("plans", "", "comma-separated fault-plan names for -chaos (default: whole catalog)")
		planName  = flag.String("plan", "", "inject one fault plan into a plain suite run (chaos repro)")
		variants  = flag.String("variants", "", "comma-separated variants (default: all sound variants)")
		maxCycles = flag.Uint64("max-cycles", 0, "cycle budget per run (0: config default)")
		coverage  = flag.Bool("coverage", false, "print the protocol transition-coverage summary after the campaign")
	)
	prof := profiling.AddFlags()
	flag.Parse()
	profiling.TuneGC()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "litmus: %v\n", err)
		return 2
	}
	defer stopProf()

	opts := litmus.Options{
		Seeds:     *seeds,
		Jitter:    *jitter,
		Parallel:  *parallel,
		MaxCycles: sim.Cycle(*maxCycles),
	}
	if *planName != "" {
		p, err := faults.ByName(*planName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "litmus: %v\n", err)
			return 2
		}
		opts.Plan = &p
	}

	// Default: every sound variant derived from the protocol registry.
	vs := core.SoundVariants()
	if *variants != "" {
		vs = nil
		for _, v := range strings.Split(*variants, ",") {
			vs = append(vs, core.Variant(strings.TrimSpace(v)))
		}
	}
	for _, v := range vs {
		if _, err := v.Spec(); err != nil {
			fmt.Fprintf(os.Stderr, "litmus: %v\n", err)
			return 2
		}
	}

	tests := litmus.Suite()
	if *name != "" {
		var keep []litmus.Test
		for _, t := range tests {
			if t.Name == *name {
				keep = append(keep, t)
			}
		}
		if len(keep) == 0 {
			fmt.Fprintf(os.Stderr, "litmus: unknown test %q\n", *name)
			return 2
		}
		tests = keep
	}

	if *chaos {
		catalog := faults.Catalog()
		if *plans != "" {
			catalog = nil
			for _, n := range strings.Split(*plans, ",") {
				p, err := faults.ByName(strings.TrimSpace(n))
				if err != nil {
					fmt.Fprintf(os.Stderr, "litmus: %v\n", err)
					return 2
				}
				catalog = append(catalog, p)
			}
		}
		summary := litmus.Chaos(tests, vs, catalog, opts)
		fmt.Print(summary.String())
		if *coverage {
			fmt.Print(summary.Coverage.String())
		}
		if summary.Failed() {
			return 1
		}
		return 0
	}

	failed := false
	cov := coherence.NewCoverageAgg()
	for _, t := range tests {
		for _, v := range vs {
			res := litmus.Run(t, v, opts)
			cov.Merge(res.Coverage)
			status := "ok"
			if res.Violations > 0 {
				status = "TSO VIOLATION"
				failed = true
			}
			if len(res.Errors) > 0 {
				status = fmt.Sprintf("ERRORS (%d hangs, %d panics)", res.Hangs, res.Panics)
				failed = true
			}
			fmt.Printf("%-20s %-13s %-14s %s", t.Name, v, status, res.String())
			for _, err := range res.Errors {
				if se, ok := faults.AsSimError(err); ok {
					fmt.Print(se.Detail())
				} else {
					fmt.Printf("  error: %v\n", err)
				}
			}
		}
	}
	if *coverage {
		fmt.Print(cov.String())
	}
	if *unsafe {
		fmt.Println("--- ooo-unsafe demonstration (violations are EXPECTED here) ---")
		res := litmus.Run(litmus.MPHitUnderMiss(), core.OoOUnsafe, opts)
		fmt.Print(res.String())
		if res.Violations == 0 {
			fmt.Println("note: no violation sampled; try more -seeds")
		}
	}
	if failed {
		return 1
	}
	return 0
}
