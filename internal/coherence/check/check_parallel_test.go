package check

import (
	"testing"

	"wbsim/internal/coherence"
)

// ceString renders a counterexample or "" — counterexamples compare as
// their full report text, so a drift anywhere (steps, dispatch stream,
// final state dump) fails loudly.
func ceString(c *Counterexample) string {
	if c == nil {
		return ""
	}
	return c.String()
}

func requireIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.States != b.States || a.Transitions != b.Transitions ||
		a.Terminals != b.Terminals || a.MaxDepth != b.MaxDepth ||
		a.Exhaustive != b.Exhaustive {
		t.Errorf("%s: counters drifted across worker counts:\n  1 worker: %+v\n  N workers: %+v", label, a, b)
	}
	if av, bv := ceString(a.Violation), ceString(b.Violation); av != bv {
		t.Errorf("%s: violation report drifted:\n--- workers=1 ---\n%s--- workers=N ---\n%s", label, av, bv)
	}
	if at, bt := ceString(a.Trap), ceString(b.Trap); at != bt {
		t.Errorf("%s: trap report drifted:\n--- workers=1 ---\n%s--- workers=N ---\n%s", label, at, bt)
	}
}

// TestParallelExplorationByteIdentical is the determinism contract of
// the parallel frontier: at any worker count the checker must produce
// the same counters and byte-identical counterexample reports. The
// counterexample cases matter most — they exercise the barrier-side
// tie-break that picks the canonical (parent, choice) discoverer for
// every state on the violating path. The capped case exercises the
// barrier's cap: which new states are admitted and which are dropped
// (with their edges) must not depend on the worker count either.
func TestParallelExplorationByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"clean-2c1b1l", Config{Model: coherence.ModelConfig{
			Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2, Mode: coherence.ModeSquash,
		}}},
		{"prefix-deadlock", Config{Model: coherence.ModelConfig{
			Cores: 1, Banks: 1, Lines: 2, OpsPerCore: 2,
			Mode: coherence.ModeSquash, PreFixPutRace: true,
		}}},
		{"corrupt-safety", Config{Model: coherence.ModelConfig{
			Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2,
			Mode: coherence.ModeSquash, CorruptWriteRace: true,
		}}},
		{"reduced-sym", Config{
			Model: coherence.ModelConfig{
				Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2, Mode: coherence.ModeSquash,
			},
			Symmetry: true,
		}},
		{"capped-sym-3c2b2l", Config{
			Model: coherence.ModelConfig{
				Cores: 3, Banks: 2, Lines: 2, OpsPerCore: 2, Mode: coherence.ModeSquash,
			},
			Symmetry: true, MaxStates: 2000,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, parallel := tc.cfg, tc.cfg
			serial.Workers = 1
			parallel.Workers = 4
			a := Explore(serial)
			if tc.cfg.MaxStates > 0 && (a.Exhaustive || a.States != tc.cfg.MaxStates) {
				t.Fatalf("%s: cap not hit mid-layer (%d states, exhaustive=%v) — no states dropped", tc.name, a.States, a.Exhaustive)
			}
			requireIdentical(t, tc.name, a, Explore(parallel))
		})
	}
}
