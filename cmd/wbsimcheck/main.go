// Command wbsimcheck runs the exhaustive explicit-state model checker
// (internal/coherence/check) over the composed directory+PCU transition
// tables — the same table.Spec rows the simulator's Bank and PCU
// interpret, so a property proved here is a property of the shipping
// tables, not of a hand-maintained re-encoding.
//
// Usage:
//
//	wbsimcheck                              # 2 cores, 1 line, squash mode
//	wbsimcheck -mode lockdown -lockdowns 1  # WritersBlock row family
//	wbsimcheck -mode tardis                 # timestamp-coherence row family
//	wbsimcheck -cores 3 -lines 2 -banks 2 -max-states 50000
//	wbsimcheck -prefix                      # pre-fix tables: finds the PR-5 deadlock
//	wbsimcheck -corrupt                     # corrupted grant row: finds the SWMR break
//	wbsimcheck -memprofile mem.pprof        # -cpuprofile, -memprofile, -trace as in every command
//
// The checker proves two properties at the configured size: safety (no
// reachable state violates single-writer or read-value coherence) and,
// on exhaustive runs, liveness (every reachable state can still drain).
// A capped run (-max-states hit) still reports any safety violation or
// hard deadlock inside the explored radius, but cannot rule out
// livelocks; the exit code and the Exhaustive field say which guarantee
// you got. Exit status: 0 = passed, 1 = violation or trap found, 2 =
// bad usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"wbsim/internal/coherence"
	"wbsim/internal/coherence/check"
	"wbsim/internal/profiling"
)

// report is the -json document: the exploration result plus the
// configuration it proves things about and the wall time it took.
type report struct {
	Config    coherence.ModelConfig `json:"config"`
	MaxStates int                   `json:"max_states,omitempty"`
	Workers   int                   `json:"workers"`
	Reduce    string                `json:"reduce"`
	Result    *check.Result         `json:"result"`
	WallMS    float64               `json:"wall_ms"`
	StatesSec float64               `json:"states_per_sec"`
	PeakRSSKB int64                 `json:"peak_rss_kb,omitempty"`
	Passed    bool                  `json:"passed"`
}

// peakRSSKB reads the process's high-water resident set from
// /proc/self/status (VmHWM). Returns 0 where that interface does not
// exist (non-Linux); the report omits the field then.
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		var kb int64
		if _, err := fmt.Sscanf(fields[1], "%d", &kb); err != nil {
			return 0
		}
		return kb
	}
	return 0
}

func main() { os.Exit(mainExit()) }

func mainExit() int {
	var (
		cores     = flag.Int("cores", 2, "model cores")
		banks     = flag.Int("banks", 1, "LLC banks")
		lines     = flag.Int("lines", 1, "distinct cache lines")
		ops       = flag.Int("ops", 2, "program length per core (ops alternate load, store)")
		lockdowns = flag.Int("lockdowns", 0, "per-core lockdown budget (lockdown mode)")
		mode      = flag.String("mode", "squash", "core mode: "+strings.Join(coherence.ModeNames(), ", "))
		preFix    = flag.Bool("prefix", false, "run the pre-fix directory tables (PR-5 deadlock)")
		corrupt   = flag.Bool("corrupt", false, "run with the corrupted write-grant row (SWMR break)")
		maxStates = flag.Int("max-states", 0, "state cap, 0 = unlimited (exhaustive)")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON")
		workers   = flag.Int("workers", runtime.GOMAXPROCS(0), "parallel frontier workers (output is byte-identical at any count)")
		reduce    = flag.String("reduce", "none", "state-space reduction: none or sym (symmetry)")
		progress  = flag.Bool("progress", false, "print per-layer frontier progress to stderr")
	)
	prof := profiling.AddFlags()
	flag.Parse()

	// Exploration retains every fingerprint, so the live heap only
	// grows; the default GC target reclaims little but rescans the
	// whole graph constantly (over half the wall time at default GOGC).
	// With pooled clones the steady-state allocation rate is low enough
	// that a very relaxed target costs a few MB of peak RSS and buys
	// ~10% wall time. Honour an explicit GOGC from the environment.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(1600)
	}

	mcfg := coherence.ModelConfig{
		Cores: *cores, Banks: *banks, Lines: *lines, OpsPerCore: *ops,
		Lockdowns: *lockdowns, PreFixPutRace: *preFix, CorruptWriteRace: *corrupt,
	}
	// Modes come from the protocol registry: registering a protocol
	// makes its mode checkable here with no flag-parsing edits.
	m, ok := coherence.ModeByName(*mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "wbsimcheck: unknown -mode %q (registered: %s)\n",
			*mode, strings.Join(coherence.ModeNames(), ", "))
		return 2
	}
	mcfg.Mode = m
	if mcfg.Cores < 1 || mcfg.Banks < 1 || mcfg.Lines < 1 || mcfg.OpsPerCore < 1 {
		fmt.Fprintln(os.Stderr, "wbsimcheck: -cores, -banks, -lines, -ops must be positive")
		return 2
	}

	ccfg := check.Config{Model: mcfg, MaxStates: *maxStates, Workers: *workers}
	switch *reduce {
	case "none":
	case "sym":
		ccfg.Symmetry = true
	default:
		fmt.Fprintf(os.Stderr, "wbsimcheck: unknown -reduce %q (want none or sym)\n", *reduce)
		return 2
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbsimcheck: %v\n", err)
		return 2
	}
	defer stopProf()

	start := time.Now()
	if *progress {
		ccfg.Progress = func(p check.ProgressInfo) {
			el := time.Since(start).Seconds()
			rate := 0.0
			if el > 0 {
				rate = float64(p.States) / el
			}
			fmt.Fprintf(os.Stderr, "wbsimcheck: depth %d frontier %d states %d transitions %d (%.0f states/sec)\n",
				p.Depth, p.Frontier, p.States, p.Transitions, rate)
		}
	}
	res := check.Explore(ccfg)
	wall := time.Since(start)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		rate := 0.0
		if s := wall.Seconds(); s > 0 {
			rate = float64(res.States) / s
		}
		if err := enc.Encode(report{
			Config: mcfg, MaxStates: *maxStates, Workers: *workers, Reduce: *reduce,
			Result: res, WallMS: float64(wall.Microseconds()) / 1000,
			StatesSec: rate, PeakRSSKB: peakRSSKB(), Passed: res.Passed(),
		}); err != nil {
			fmt.Fprintf(os.Stderr, "wbsimcheck: %v\n", err)
			return 2
		}
	} else {
		scope := "exhaustive"
		if !res.Exhaustive {
			scope = fmt.Sprintf("CAPPED at %d states (liveness not proven)", *maxStates)
		}
		fmt.Printf("wbsimcheck: %d cores, %d banks, %d lines, %d ops, mode=%s\n",
			mcfg.Cores, mcfg.Banks, mcfg.Lines, mcfg.OpsPerCore, *mode)
		fmt.Printf("explored %d states, %d transitions, %d terminals, depth %d in %v (%s)\n",
			res.States, res.Transitions, res.Terminals, res.MaxDepth, wall.Round(time.Millisecond), scope)
		if res.SymmetryGroup > 1 {
			fmt.Printf("reductions: symmetry group %d\n", res.SymmetryGroup)
		}
		if res.Violation != nil {
			fmt.Print(res.Violation.String())
		}
		if res.Trap != nil {
			fmt.Print(res.Trap.String())
		}
		if res.Passed() {
			fmt.Println("PASS: no safety violation, no unreachable-drain trap")
		}
	}
	if !res.Passed() {
		return 1
	}
	return 0
}
