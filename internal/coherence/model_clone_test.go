package coherence

import "testing"

// lcg is a tiny deterministic generator for pseudo-random walks (the
// repo's determinism discipline rules out the global math/rand).
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 17)
}

var cloneCfgs = []ModelConfig{
	{Cores: 1, Banks: 1, Lines: 1, OpsPerCore: 2, Mode: ModeSquash},
	{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 4, Mode: ModeSquash},
	{Cores: 2, Banks: 2, Lines: 2, OpsPerCore: 4, Lockdowns: 1, Mode: ModeLockdown},
	{Cores: 3, Banks: 2, Lines: 2, OpsPerCore: 3, Mode: ModeSquash},
	{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 4, Mode: ModeSquash, PreFixPutRace: true},
}

// checkClonedPCUs asserts that every PCU of clone carries src's
// blocked-write count and activity stamp — neither reaches the
// fingerprint — and that the count matches the blocked write MSHRs. It
// returns the largest count seen.
func checkClonedPCUs(t *testing.T, clone, src *Model) int {
	t.Helper()
	most := 0
	for i, p := range src.pcus {
		np := clone.pcus[i]
		if np.blockedWrites != p.blockedWrites || np.activeAt != p.activeAt {
			t.Fatalf("pcu %d: clone has blockedWrites=%d activeAt=%d, source %d/%d",
				i, np.blockedWrites, np.activeAt, p.blockedWrites, p.activeAt)
		}
		np.CheckInvariants()
		most = max(most, p.blockedWrites)
	}
	return most
}

// TestCloneMatchesOriginal drives deep pseudo-random walks, cloning at
// every step, and asserts the three clone contracts: a fresh clone
// fingerprints identically to its source; applying the same choice to
// clone and source keeps them identical; and mutating one never moves
// the other (no shared mutable state survives Clone).
func TestCloneMatchesOriginal(t *testing.T) {
	sawBlocked := false
	for _, cfg := range cloneCfgs {
		rnd := lcg(uint64(cfg.Cores)*31 + uint64(cfg.Lines)*7 + uint64(cfg.Mode))
		for walk := 0; walk < 12; walk++ {
			m := NewModel(cfg)
			for step := 0; step < 60; step++ {
				n := m.NumChoices()
				if n == 0 || m.Violation() != "" {
					break
				}
				cl := m.Clone()
				if got, want := cl.Fingerprint(), m.Fingerprint(); got != want {
					t.Fatalf("cfg %+v walk %d step %d: clone fingerprint diverges before any transition\n got %q\nwant %q", cfg, walk, step, got, want)
				}
				if checkClonedPCUs(t, cl, m) > 0 {
					sawBlocked = true
				}
				frozen := cl.Fingerprint()
				c := int(rnd.next() % uint64(n))
				m.ApplyIndex(c)
				if cl.Fingerprint() != frozen {
					t.Fatalf("cfg %+v walk %d step %d: mutating the original moved the clone", cfg, walk, step)
				}
				cl.ApplyIndex(c)
				if got, want := cl.Fingerprint(), m.Fingerprint(); got != want {
					t.Fatalf("cfg %+v walk %d step %d choice %d: clone diverges after identical transition\n got %q\nwant %q", cfg, walk, step, c, got, want)
				}
				if cl.Violation() != m.Violation() {
					t.Fatalf("cfg %+v walk %d step %d: violation mismatch %q vs %q", cfg, walk, step, cl.Violation(), m.Violation())
				}
				if step%2 == 1 {
					m = cl // continue on the clone: exercises clone-of-clone chains
				}
			}
		}
	}
	if !sawBlocked {
		t.Error("no walk reached a blocked write; the count's clone check is vacuous")
	}
}

// TestCloneTerminalAgreement walks a model to completion on clones only
// and asserts Terminal/CheckTerminal agree between clone and original.
func TestCloneTerminalAgreement(t *testing.T) {
	cfg := ModelConfig{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: ModeSquash}
	rnd := lcg(99)
	for walk := 0; walk < 30; walk++ {
		m := NewModel(cfg)
		for step := 0; step < 200; step++ {
			n := m.NumChoices()
			if n == 0 || m.Violation() != "" {
				break
			}
			m = m.Clone()
			m.ApplyIndex(int(rnd.next() % uint64(n)))
			if m.Terminal() {
				if tv := m.CheckTerminal(); tv != "" {
					t.Fatalf("walk %d: terminal violation on cloned walk: %s", walk, tv)
				}
				break
			}
		}
	}
}

// TestCloneIntoDirtyDestination drives the pooled-clone contract: a
// retired model of the same geometry — left in an arbitrary dirty state
// by its own walk — overwritten via CloneInto must be indistinguishable
// from a fresh Clone, and must be fully detached from both its source
// and its own former state.
func TestCloneIntoDirtyDestination(t *testing.T) {
	for _, cfg := range cloneCfgs {
		rnd := lcg(uint64(cfg.Cores)*101 + uint64(cfg.Lines)*13 + uint64(cfg.Mode))
		for walk := 0; walk < 8; walk++ {
			src := NewModel(cfg)
			pool := NewModel(cfg) // walks independently, then gets recycled
			for step := 0; step < 40; step++ {
				if n := pool.NumChoices(); n > 0 && pool.Violation() == "" {
					pool.ApplyIndex(int(rnd.next() % uint64(n)))
				}
				n := src.NumChoices()
				if n == 0 || src.Violation() != "" {
					break
				}
				src.ApplyIndex(int(rnd.next() % uint64(n)))
				got := src.CloneInto(pool)
				if got != pool {
					t.Fatalf("cfg %+v walk %d step %d: CloneInto did not return its destination", cfg, walk, step)
				}
				if got.Fingerprint() != src.Fingerprint() {
					t.Fatalf("cfg %+v walk %d step %d: pooled clone fingerprint diverges\n got %q\nwant %q",
						cfg, walk, step, got.Fingerprint(), src.Fingerprint())
				}
				checkClonedPCUs(t, got, src)
				if got.CanonicalFingerprint() != src.CanonicalFingerprint() {
					t.Fatalf("cfg %+v walk %d step %d: pooled clone canonical fingerprint diverges", cfg, walk, step)
				}
				// Mutating the pooled clone must never move the source.
				frozen := src.Fingerprint()
				if n := got.NumChoices(); n > 0 && got.Violation() == "" {
					got.ApplyIndex(int(rnd.next() % uint64(n)))
				}
				if src.Fingerprint() != frozen {
					t.Fatalf("cfg %+v walk %d step %d: mutating the pooled clone moved the source", cfg, walk, step)
				}
				// Next iteration recycles the same destination again.
			}
		}
	}
}

// TestModelCloneIntoZeroAlloc pins the pooled clone's steady state: once
// a destination has been warmed by one CloneInto from a source, cloning
// that source into it again allocates nothing — arenas, memo tables,
// event arguments, cache frames and the clone context are all reused.
// The model checker runs one CloneInto per explored transition.
func TestModelCloneIntoZeroAlloc(t *testing.T) {
	for _, cfg := range cloneCfgs {
		rnd := lcg(uint64(cfg.Cores)*17 + uint64(cfg.Lines))
		src := NewModel(cfg)
		for step := 0; step < 12; step++ {
			n := src.NumChoices()
			if n == 0 || src.Violation() != "" {
				break
			}
			src.ApplyIndex(int(rnd.next() % uint64(n)))
		}
		dst := src.Clone()
		src.CloneInto(dst)
		if allocs := testing.AllocsPerRun(100, func() { src.CloneInto(dst) }); allocs != 0 {
			t.Errorf("cfg %+v: CloneInto into a warmed destination allocates %v times per call; want 0", cfg, allocs)
		}
	}
}

// TestModelSetupAllocBudget pins the cost of building a checker's
// input: the initial model and its canonical fingerprint, which
// computes the symmetry group. Every closure and every replay starts
// with NewModel, so a regression here shows up as set-up time.
func TestModelSetupAllocBudget(t *testing.T) {
	cfg := ModelConfig{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: ModeSquash}
	allocs := testing.AllocsPerRun(50, func() { NewModel(cfg).CanonicalFingerprint() })
	if allocs > 75 {
		t.Errorf("NewModel(%+v).CanonicalFingerprint() allocates %v times; budget 75", cfg, allocs)
	}
}
