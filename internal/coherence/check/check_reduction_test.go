package check

import (
	"fmt"
	"sort"
	"testing"

	"wbsim/internal/coherence"
)

// sortedSet dedups and sorts a collected state set for order-insensitive
// comparison (BFS admission order differs across reductions; the state
// set must not).
func sortedSet(fps []string) []string {
	seen := make(map[string]bool, len(fps))
	out := make([]string, 0, len(fps))
	for _, fp := range fps {
		if !seen[fp] {
			seen[fp] = true
			out = append(out, fp)
		}
	}
	sort.Strings(out)
	return out
}

func diffSets(t *testing.T, label string, full, reduced []string) {
	t.Helper()
	if len(full) != len(reduced) {
		t.Errorf("%s: %d states full vs %d reduced", label, len(full), len(reduced))
	}
	rs := make(map[string]bool, len(reduced))
	for _, fp := range reduced {
		rs[fp] = true
	}
	missing := 0
	for _, fp := range full {
		if !rs[fp] {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%s: %d full-exploration states missing from the reduced run", label, missing)
	}
}

// TestSymmetryPreservesCanonicalStateSet: the symmetry run's state set
// must be exactly the full run's states folded through canonicalization
// — same orbits, no orbit lost, no orbit invented. The counters of both
// runs are pinned, so a drift in either the model or the quotient fails
// even when the two drift together.
func TestSymmetryPreservesCanonicalStateSet(t *testing.T) {
	configs := []struct {
		mcfg      coherence.ModelConfig
		full, sym counters
	}{
		{coherence.ModelConfig{Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2, Mode: coherence.ModeSquash},
			counters{881, 3042, 4, 42}, counters{439, 1514, 2, 42}},
		{coherence.ModelConfig{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: coherence.ModeSquash},
			counters{18111, 85402, 3, 51}, counters{9069, 42747, 2, 51}},
		{coherence.ModelConfig{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: coherence.ModeTardis},
			counters{14107, 63320, 3, 47}, counters{7067, 31706, 2, 47}},
	}
	if testing.Short() {
		configs = configs[:1]
	}
	for _, c := range configs {
		mcfg := c.mcfg
		full := Explore(Config{Model: mcfg, CollectStates: true})
		sym := Explore(Config{Model: mcfg, Symmetry: true, CollectStates: true})
		label := describe(mcfg)
		if !full.Exhaustive || !sym.Exhaustive {
			t.Fatalf("%s: space did not close", label)
		}
		wantCounters(t, label+" full", full, c.full)
		wantCounters(t, label+" sym", sym, c.sym)
		// The full run collects canonical fingerprints too, so folding it
		// to a set performs the orbit quotient the sym run does online.
		canon := sortedSet(full.StateSet)
		if sym.States != len(canon) {
			t.Errorf("%s: %d canonical orbits in full run, sym run admitted %d states",
				label, len(canon), sym.States)
		}
		diffSets(t, label, canon, sortedSet(sym.StateSet))
		if sym.SymmetryGroup < 2 {
			t.Errorf("%s: symmetry group %d — reduction not engaging", label, sym.SymmetryGroup)
		}
		if full.Terminals < sym.Terminals {
			t.Errorf("%s: sym run has more terminals (%d) than full run (%d)",
				label, sym.Terminals, full.Terminals)
		}
	}
}

// TestPreFixTraceUnchangedUnderSymmetry pins the minimized PR-5 deadlock
// counterexample across the symmetry reduction: the 1-core config's
// group is trivial on the core axis and its program breaks the line
// symmetry, so canonicalization must not perturb the reported trace.
func TestPreFixTraceUnchangedUnderSymmetry(t *testing.T) {
	mcfg := coherence.ModelConfig{
		Cores: 1, Banks: 1, Lines: 2, OpsPerCore: 2,
		Mode: coherence.ModeSquash, PreFixPutRace: true,
	}
	plain := Explore(Config{Model: mcfg})
	sym := Explore(Config{Model: mcfg, Symmetry: true})
	if plain.Trap == nil || sym.Trap == nil {
		t.Fatalf("pre-fix trap not found: plain=%v sym=%v", plain.Trap, sym.Trap)
	}
	if got, want := sym.Trap.String(), plain.Trap.String(); got != want {
		t.Errorf("symmetry perturbed the minimized trace:\n--- sym ---\n%s--- plain ---\n%s", got, want)
	}
}

func describe(m coherence.ModelConfig) string {
	return fmt.Sprintf("%dc%db%dl", m.Cores, m.Banks, m.Lines)
}
