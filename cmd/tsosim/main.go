// Command tsosim runs one or more workloads on the simulated multicore
// and prints the run statistics.
//
// Usage:
//
//	tsosim -workload fft -class SLM -variant ooo-wb -cores 16 -scale 1
//	tsosim -workload fft,lu,radix -parallel 4   # several, fanned across workers
//	tsosim -workload all                        # every registered workload
//	tsosim -workload fft -plan hostile -seed 7 -max-cycles 2000000
//
// Variants are derived from the protocol registry (commit policy ×
// registered coherence protocol); -list-variants prints the current set
// with descriptions. Classes: SLM, NHM, HSW (Table 6 of the paper).
// With several workloads,
// -parallel bounds the simulations run concurrently; reports are printed
// in the order the workloads were named regardless of completion order.
// -plan injects a named fault plan and -seed/-max-cycles pin the exact
// machine, so a hang found by the chaos campaign reproduces in one
// invocation; a hang or contained panic prints its full HangReport.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"wbsim/internal/core"
	"wbsim/internal/faults"
	"wbsim/internal/profiling"
	"wbsim/internal/runner"
	"wbsim/internal/sim"
	"wbsim/internal/workload"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		names     = flag.String("workload", "fft", "comma-separated workload names, or \"all\" (see -list)")
		class     = flag.String("class", "SLM", "core class: SLM, NHM, HSW")
		variant   = flag.String("variant", "ooo-wb", "system variant (see -list-variants)")
		cores     = flag.Int("cores", 16, "number of cores")
		scale     = flag.Int("scale", 1, "workload scale factor")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations (<=0: GOMAXPROCS)")
		list      = flag.Bool("list", false, "list available workloads and exit")
		listVars  = flag.Bool("list-variants", false, "list the registry-derived system variants and exit")
		maxCycles = flag.Uint64("max-cycles", 0, "cycle budget per run (0: config default)")
		planName  = flag.String("plan", "", "inject a named fault plan (see internal/faults)")
	)
	prof := profiling.AddFlags()
	flag.Parse()
	profiling.TuneGC()

	if *list {
		for _, w := range workload.All() {
			fmt.Printf("%-14s %-8s %s\n", w.Name, w.Suite, w.Pattern)
		}
		return 0
	}
	if *listVars {
		fmt.Print(core.VariantHelp())
		return 0
	}
	if _, err := core.Variant(*variant).Spec(); err != nil {
		fmt.Fprintf(os.Stderr, "tsosim: %v\n", err)
		return 2
	}

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsosim: %v\n", err)
		return 2
	}
	defer stopProf()

	var ws []workload.Workload
	if *names == "all" {
		ws = workload.All()
	} else {
		for _, name := range strings.Split(*names, ",") {
			name = strings.TrimSpace(name)
			w, ok := workload.Get(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "tsosim: unknown workload %q (use -list)\n", name)
				return 1
			}
			ws = append(ws, w)
		}
	}

	cfg := core.DefaultConfig(core.Class(strings.ToUpper(*class)), core.Variant(*variant))
	cfg.Cores = *cores
	cfg.Seed = *seed
	if *maxCycles > 0 {
		cfg.MaxCycles = sim.Cycle(*maxCycles)
	}
	if *planName != "" {
		p, err := faults.ByName(*planName)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tsosim: %v\n", err)
			return 2
		}
		cfg.Faults = &p
	}

	// Fan the independent simulations across workers; results land in
	// per-workload slots so reports print in the order named.
	results := make([]core.Results, len(ws))
	err = runner.ForEach(context.Background(), *parallel, len(ws), func(_ context.Context, i int) error {
		_, res, err := workload.Run(ws[i], cfg, *scale)
		if err != nil {
			return fmt.Errorf("%s: %w", ws[i].Name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tsosim: %v\n", err)
		if se, ok := faults.AsSimError(err); ok {
			fmt.Fprint(os.Stderr, se.Detail())
		}
		return 1
	}

	for i, w := range ws {
		if i > 0 {
			fmt.Println()
		}
		printRun(w, cfg, *class, *variant, results[i])
	}
	return 0
}

func printRun(w workload.Workload, cfg core.Config, class, variant string, res core.Results) {
	fmt.Printf("workload            %s (%s)\n", w.Name, w.Pattern)
	fmt.Printf("machine             %d cores, %s-class, %s\n", cfg.Cores, class, variant)
	fmt.Printf("cycles              %d\n", res.Cycles)
	fmt.Printf("instructions        %d (%.3f IPC/core)\n", res.Committed,
		float64(res.Committed)/float64(res.Cycles)/float64(cfg.Cores))
	fmt.Printf("loads / stores      %d / %d\n", res.CommittedLoads, res.CommittedStores)
	fmt.Printf("ooo commits         %d (%d M-speculative)\n", res.CommittedOoO, res.MSpecCommits)
	fmt.Printf("squashes            %d (consistency: %d inv + %d evict)\n",
		res.Squashed, res.SquashInv, res.SquashEvict)
	fmt.Printf("blocked writes      %d (%.3f per kilo-store)\n", res.BlockedWrites,
		permille(res.BlockedWrites, res.CommittedStores))
	fmt.Printf("uncacheable reads   %d (%.3f per kilo-load)\n", res.UncacheableReads,
		permille(res.UncacheableReads, res.CommittedLoads))
	fmt.Printf("nacks / delayed-ack %d / %d\n", res.Nacks, res.DelayedAcks)
	fmt.Printf("network             %d msgs, %d flits, %d flit-hops\n",
		res.NetMessages, res.NetFlits, res.NetFlitHops)
	fmt.Printf("stall cycles        ROB=%d LQ=%d SQ=%d other=%d (of %d core-cycles)\n",
		res.StallROB, res.StallLQ, res.StallSQ, res.StallOther, res.CoreCycles)
}

func permille(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return 1000 * float64(n) / float64(d)
}
