package coherence

import (
	"slices"
	"testing"
)

// TestSymmetryGroupSizes pins the automorphism group order for the
// checked geometries. The per-core programs are rotations (core c
// starts at line c), so the only nontrivial automorphisms are the
// simultaneous rotations/swaps the comments below derive.
func TestSymmetryGroupSizes(t *testing.T) {
	cases := []struct {
		cfg  ModelConfig
		want int
	}{
		// One core: only the identity.
		{ModelConfig{Cores: 1, Banks: 1, Lines: 1, OpsPerCore: 2, Mode: ModeSquash}, 1},
		// One line: any core permutation works (programs identical).
		{ModelConfig{Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2, Mode: ModeSquash}, 2},
		// Two cores, two lines: core swap forces the line swap.
		{ModelConfig{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 4, Mode: ModeSquash}, 2},
		{ModelConfig{Cores: 2, Banks: 2, Lines: 2, OpsPerCore: 4, Lockdowns: 1, Mode: ModeLockdown}, 2},
		// Three cores, two lines: σ is a mod-2 shift, so π must preserve
		// parity of the start line: {id, (0 2)}.
		{ModelConfig{Cores: 3, Banks: 2, Lines: 2, OpsPerCore: 2, Mode: ModeSquash}, 2},
	}
	for _, tc := range cases {
		m := NewModel(tc.cfg)
		if got := m.SymmetrySize(); got != tc.want {
			t.Errorf("cfg %+v: group size %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

// mapChoiceThrough renames a recorded choice through an automorphism.
// Delivery indices are positions in the in-flight multiset, which the
// renamed execution reproduces exactly (injection order mirrors the
// original execution), so they map to themselves.
func mapChoiceThrough(p *symPerm, ch choice) choice {
	switch ch.kind {
	case chDeliver:
		return ch
	case chFireCore:
		return choice{kind: chFireCore, comp: p.core[ch.comp], idx: ch.idx}
	case chFireBank:
		return choice{kind: chFireBank, comp: p.bank[ch.comp], idx: ch.idx}
	case chLoad, chStore:
		return choice{kind: ch.kind, comp: p.core[ch.comp]}
	case chLock, chLift:
		return choice{kind: ch.kind, comp: p.core[ch.comp], idx: p.line[ch.idx]}
	}
	panic("unknown choice kind")
}

// TestSymmetryCanonicalInvariance drives pseudo-random walks and, in
// lockstep, the renamed walks under every non-identity automorphism.
// At every step the walks are distinct concrete states in the same
// orbit: identity fingerprints may differ, canonical fingerprints must
// not. This is the end-to-end soundness check of the mapped
// serialization (a bug in any renamed field ordering breaks it).
func TestSymmetryCanonicalInvariance(t *testing.T) {
	cfgs := []ModelConfig{
		{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 4, Mode: ModeSquash},
		{Cores: 2, Banks: 2, Lines: 2, OpsPerCore: 4, Lockdowns: 1, Mode: ModeLockdown},
		{Cores: 3, Banks: 2, Lines: 2, OpsPerCore: 2, Mode: ModeSquash},
	}
	for _, cfg := range cfgs {
		root := NewModel(cfg)
		grp := root.symmetry()
		if len(grp.perms) < 2 {
			t.Fatalf("cfg %+v: no nontrivial automorphism to test", cfg)
		}
		sawDifferentIdentity := false
		for gi := 1; gi < len(grp.perms); gi++ {
			p := &grp.perms[gi]
			rnd := lcg(uint64(gi) * 1234567)
			for walk := 0; walk < 8; walk++ {
				m := NewModel(cfg)
				mm := NewModel(cfg)
				for step := 0; step < 50; step++ {
					cs := m.Choices()
					if len(cs) == 0 || m.Violation() != "" {
						break
					}
					ch := cs[int(rnd.next()%uint64(len(cs)))]
					mapped := mapChoiceThrough(p, ch)
					found := false
					for _, c2 := range mm.Choices() {
						if c2 == mapped {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("cfg %+v g%d walk %d step %d: mapped choice %+v not enabled in renamed walk", cfg, gi, walk, step, mapped)
					}
					m.Apply(ch)
					mm.Apply(mapped)
					cf1 := m.CanonicalFingerprint()
					cf2 := mm.CanonicalFingerprint()
					if cf1 != cf2 {
						t.Fatalf("cfg %+v g%d walk %d step %d: canonical fingerprints diverge\n a %q\n b %q", cfg, gi, walk, step, cf1, cf2)
					}
					if m.Fingerprint() != mm.Fingerprint() {
						sawDifferentIdentity = true
					}
					if m.Violation() != mm.Violation() {
						// Violation strings are rendered in concrete
						// coordinates, so only presence must agree.
						if (m.Violation() == "") != (mm.Violation() == "") {
							t.Fatalf("cfg %+v g%d walk %d step %d: violation presence diverges", cfg, gi, walk, step)
						}
					}
				}
			}
		}
		if !sawDifferentIdentity {
			t.Errorf("cfg %+v: renamed walks never left the identity fingerprint — test has no teeth", cfg)
		}
	}
}

// TestCanonicalInjectivity samples many reachable states and checks
// both directions of canonical soundness: states with equal canonical
// fingerprints are related by a group element, and states with
// different canonical fingerprints are not.
func TestCanonicalInjectivity(t *testing.T) {
	cfg := ModelConfig{Cores: 2, Banks: 2, Lines: 2, OpsPerCore: 4, Lockdowns: 1, Mode: ModeLockdown}
	rnd := lcg(7)
	type sample struct {
		canon string
		maps  []string // fingerprintMapped under every group element
	}
	var samples []sample
	for walk := 0; walk < 25; walk++ {
		m := NewModel(cfg)
		for step := 0; step < 30; step++ {
			n := m.NumChoices()
			if n == 0 || m.Violation() != "" {
				break
			}
			m.ApplyIndex(int(rnd.next() % uint64(n)))
			cf := m.CanonicalFingerprint()
			grp := m.symmetry()
			s := sample{canon: cf}
			for i := range grp.perms {
				s.maps = append(s.maps, string(m.fingerprintMapped(&grp.perms[i], nil, nil)))
			}
			// The canonical form is the lexicographic minimum over the
			// whole group (the early-abort search must not miss it).
			if lo := slices.Min(s.maps); cf != lo {
				t.Fatalf("walk %d step %d: canonical fingerprint is not the minimum over the group\n got %q\nmin %q", walk, step, cf, lo)
			}
			samples = append(samples, s)
		}
	}
	related := func(a, b sample) bool {
		// b = g(a) for some g iff one of a's mapped serializations equals
		// b's identity-element serialization.
		for _, mfp := range a.maps {
			if mfp == b.maps[0] {
				return true
			}
		}
		return false
	}
	equal, diff := 0, 0
	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j++ {
			a, b := samples[i], samples[j]
			if a.canon == b.canon {
				equal++
				if !related(a, b) {
					t.Fatalf("samples %d,%d: equal canonical fingerprints but no group element relates them (collision)", i, j)
				}
			} else {
				diff++
				if related(a, b) {
					t.Fatalf("samples %d,%d: related states canonicalize differently", i, j)
				}
			}
		}
	}
	if equal == 0 || diff == 0 {
		t.Errorf("degenerate sample: %d equal pairs, %d differing pairs", equal, diff)
	}
}
