// Command experiments regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	experiments fig8          # Figure 8: WritersBlock event rates
//	experiments fig9          # Figure 9: protocol overhead
//	experiments fig10         # Figure 10: stalls + normalized execution time
//	experiments squash        # squash elimination study
//	experiments protocols     # E23: registry protocols head-to-head (base/wb/tardis)
//	experiments ablations     # eviction policy / LDT / MSHR / class sweeps
//	experiments chaos         # fault-plan × litmus-suite × seed campaign
//	experiments all           # everything (chaos excluded; run it explicitly)
//
// Flags -cores, -scale, -seed, -max-cycles adjust the machine and
// workload sizes (so a hang found by chaos reproduces in one
// invocation). -parallel bounds the simulations run concurrently
// (default: one per CPU); tables are byte-identical at any setting.
// -json emits the tables plus engine counters — including the identity
// of every failed (workload, config, seed) job — as one JSON document
// instead of text. The engine report goes to stderr in text mode so
// stdout stays a clean table stream. -chaos-seeds sizes the chaos
// campaign.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"wbsim/internal/core"
	"wbsim/internal/experiments"
	"wbsim/internal/faults"
	"wbsim/internal/litmus"
	"wbsim/internal/profiling"
	"wbsim/internal/sim"
	"wbsim/internal/stats"
)

func main() { os.Exit(mainExit()) }

func mainExit() int {
	var (
		cores      = flag.Int("cores", 16, "number of cores")
		scale      = flag.Int("scale", 2, "workload scale factor")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		parallel   = flag.Int("parallel", 0, "max concurrent simulations (<=0: GOMAXPROCS)")
		jsonOut    = flag.Bool("json", false, "emit tables and engine counters as JSON")
		maxCycles  = flag.Uint64("max-cycles", 0, "cycle budget per simulation (0: config default)")
		chaosSeeds = flag.Int("chaos-seeds", 8, "seeds per (plan, test, variant) chaos cell")
		coverage   = flag.Bool("coverage", false, "print the protocol transition-coverage summary after the run")
	)
	prof := profiling.AddFlags()
	flag.Parse()
	profiling.TuneGC()

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}
	defer stopProf()

	opt := experiments.Options{Cores: *cores, Scale: *scale, Seed: *seed, MaxCycles: sim.Cycle(*maxCycles)}
	eng := experiments.NewEngine(*parallel)

	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	run := func(name string) bool { return what == "all" || what == name }

	var tables []*stats.Table
	metrics := map[string]float64{}
	emit := func(t *stats.Table) {
		tables = append(tables, t)
		if !*jsonOut {
			fmt.Println(t)
		}
	}
	// A failed experiment does not abort the rest: the error is reported
	// (and listed in the JSON document), remaining experiments run, and
	// the exit status ends up non-zero. The engine already guarantees the
	// same isolation between the simulations inside one experiment.
	var runErrs []string
	check := func(err error) bool {
		if err != nil {
			runErrs = append(runErrs, err.Error())
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return false
		}
		return true
	}
	any := false

	if run("fig8") {
		any = true
		if t, err := eng.Fig8(opt); check(err) {
			emit(t)
		}
	}
	if run("fig9") {
		any = true
		if t, err := eng.Fig9(opt); check(err) {
			emit(t)
		}
	}
	if run("fig10") {
		any = true
		if t, err := eng.Fig10Stalls(opt); check(err) {
			emit(t)
		}
		if r, err := eng.Fig10Time(opt); check(err) {
			emit(r.Table)
			metrics["fig10.avg-vs-inorder-pct"] = r.AvgVsInOrder
			metrics["fig10.max-vs-inorder-pct"] = r.MaxVsInOrder
			metrics["fig10.avg-vs-ooo-pct"] = r.AvgVsOoO
			metrics["fig10.max-vs-ooo-pct"] = r.MaxVsOoO
			if !*jsonOut {
				fmt.Printf("OoO+WritersBlock vs in-order commit: %.1f%% avg, %.1f%% max\n",
					r.AvgVsInOrder, r.MaxVsInOrder)
				fmt.Printf("OoO+WritersBlock vs safe OoO commit: %.1f%% avg, %.1f%% max\n",
					r.AvgVsOoO, r.MaxVsOoO)
				fmt.Printf("(paper: 15.4%% avg / 41.9%% max, and 10.2%% avg / 28.3%% max)\n\n")
			}
		}
	}
	if run("squash") {
		any = true
		if t, err := eng.Squashes(opt); check(err) {
			emit(t)
		}
	}
	if run("ablations") {
		any = true
		for _, f := range []func(experiments.Options) (*stats.Table, error){
			eng.AblateEvictionPolicy,
			eng.AblateLDTSize,
			eng.AblateReservedMSHRs,
			eng.ClassSweep,
		} {
			if t, err := f(opt); check(err) {
				emit(t)
			}
		}
	}
	if run("protocols") {
		any = true
		if t, err := eng.ProtocolCompare(opt); check(err) {
			emit(t)
		}
	}
	if what == "chaos" {
		any = true
		summary := litmus.Chaos(litmus.Suite(), core.SoundVariants(), faults.Catalog(), litmus.Options{
			Seeds:     *chaosSeeds,
			Jitter:    24,
			Parallel:  *parallel,
			MaxCycles: sim.Cycle(*maxCycles),
		})
		if *jsonOut {
			out, err := json.MarshalIndent(summary, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
			fmt.Println(string(out))
		} else {
			fmt.Print(summary.String())
			if *coverage {
				fmt.Print(summary.Coverage.String())
			}
		}
		if summary.Failed() {
			return 1
		}
		return 0
	}
	if !any {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (fig8|fig9|fig10|squash|protocols|ablations|chaos|all)\n", what)
		return 2
	}

	if *jsonOut {
		doc := struct {
			Tables   []*stats.Table           `json:"tables"`
			Metrics  map[string]float64       `json:"metrics,omitempty"`
			Engine   *stats.Counters          `json:"engine"`
			Failures []experiments.JobFailure `json:"failures,omitempty"`
			Errors   []string                 `json:"errors,omitempty"`
		}{tables, metrics, eng.Report(), eng.Failures(), runErrs}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		fmt.Println(string(out))
	} else {
		if *coverage {
			fmt.Print(eng.Coverage().String())
		}
		fmt.Fprintf(os.Stderr, "-- engine report --\n%s", eng.Report())
		for _, f := range eng.Failures() {
			fmt.Fprintf(os.Stderr, "failed job: %s (workload=%s class=%s variant=%s seed=%d scale=%d kind=%s): %s\n",
				f.Label, f.Workload, f.Class, f.Variant, f.Seed, f.Scale, f.Kind, f.Err)
		}
	}
	if len(runErrs) > 0 {
		return 1
	}
	return 0
}
