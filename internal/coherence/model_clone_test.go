package coherence

import (
	"fmt"
	"slices"
	"testing"

	"wbsim/internal/cache"
	"wbsim/internal/mem"
)

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
	for i, s := range src.ps {
		p, np := s.pcu, clone.ps[i].pcu
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

// TestChildMatchesFullClone guards the copy-on-write path against the
// whole-model oracle. At every transition of pseudo-random walks over
// every cloneCfgs geometry it applies one choice both to a pooled
// child and to a full Clone of the same parent, and asserts that the
// two children fingerprint alike, violate alike and enumerate the same
// choices; that the parent's fingerprint has not moved (a snapshot
// mutated while shared would move it); and that no earlier model of
// the walk still held has moved either. Every choice the parent reports
// Unchanged must leave a full clone's fingerprint as it was. Every
// other step retires the parent before its child applies, as the
// checker does for a node's last choice, so snapshots are also mutated
// in place; retired models and snapshots are recycled through the pool.
func TestChildMatchesFullClone(t *testing.T) {
	type frozen struct {
		m  *Model
		fp string
	}
	selfLoops := 0
	for _, cfg := range cloneCfgs {
		rnd := lcg(uint64(cfg.Cores)*71 + uint64(cfg.Banks)*5 + uint64(cfg.Mode))
		for walk := 0; walk < 24; walk++ {
			pool := new(ModelPool)
			m := pool.Child(NewModel(cfg))
			var kept []frozen
			for step := 0; step < 80; step++ {
				n := m.NumChoices()
				if n == 0 || m.Violation() != "" {
					break
				}
				parentFP := m.Fingerprint()
				for _, ch := range slices.Clone(m.Choices()) {
					if !m.Unchanged(ch) {
						continue
					}
					selfLoops++
					c := m.Clone()
					c.Apply(ch)
					if c.Fingerprint() != parentFP || c.Violation() != "" {
						t.Fatalf("cfg %+v walk %d step %d: a choice reported unchanged moves the state", cfg, walk, step)
					}
				}
				ch := m.Choices()[rnd.next()%uint64(n)]
				full := m.Clone()
				full.Apply(ch)
				cow := pool.Child(m)
				inPlace := step%2 == 1
				if inPlace {
					pool.Release(m)
				}
				cow.Apply(ch)
				if got, want := cow.Fingerprint(), full.Fingerprint(); got != want {
					t.Fatalf("cfg %+v walk %d step %d (in place %v): child fingerprint diverges from the full clone's\n got %x\nwant %x",
						cfg, walk, step, inPlace, got, want)
				}
				if cow.Violation() != full.Violation() {
					t.Fatalf("cfg %+v walk %d step %d: violation %q, full clone %q", cfg, walk, step, cow.Violation(), full.Violation())
				}
				if got, want := slices.Clone(cow.Choices()), full.Choices(); !slices.Equal(got, want) {
					t.Fatalf("cfg %+v walk %d step %d: child choices %v, full clone %v", cfg, walk, step, got, want)
				}
				if !inPlace {
					if m.Fingerprint() != parentFP {
						t.Fatalf("cfg %+v walk %d step %d: applying the child moved its parent", cfg, walk, step)
					}
					kept = append(kept, frozen{m, parentFP})
				}
				for i, k := range kept {
					if k.m.Fingerprint() != k.fp {
						t.Fatalf("cfg %+v walk %d step %d: kept model %d of the walk moved", cfg, walk, step, i)
					}
				}
				if len(kept) > 4 {
					pool.Release(kept[0].m)
					kept = kept[1:]
				}
				m = cow
			}
		}
	}
	if selfLoops == 0 {
		t.Error("no walk met a choice reported unchanged; that check is vacuous")
	}
}

// TestUnchangedStoreRetry pins Model.Unchanged on hand-driven store
// retries, including the ones random walks rarely meet: a retry is a
// self-loop exactly when the core holds no write permission and a miss
// for the line is in flight or the MSHRs are full. Each verdict is
// checked against applying the retry to a full clone.
func TestUnchangedStoreRetry(t *testing.T) {
	m := NewModel(ModelConfig{Cores: 1, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: ModeSquash})
	core, p := &m.ps[0].core, m.ps[0].pcu
	core.pc = 1 // the program is a load of line 0, then a store to line 1
	store := choice{kind: chStore}
	line, other := m.lines[core.prog[1].li], m.lines[core.prog[0].li]
	check := func(want bool, state string) {
		t.Helper()
		if got := m.Unchanged(store); got != want {
			t.Fatalf("%s: Unchanged = %v, want %v", state, got, want)
		}
		c := m.Clone()
		c.Apply(store)
		if moved := c.Fingerprint() != m.Fingerprint(); moved == want {
			t.Fatalf("%s: applying the retry moved the state = %v", state, moved)
		}
	}
	check(false, "no permission, nothing in flight")
	m.Apply(store)
	check(true, "no permission, the GetX in flight")
	for !p.HasWritePermission(line) {
		for _, ch := range m.Choices() {
			if ch.kind != chStore {
				m.Apply(ch)
				break
			}
		}
	}
	begin(p.mshrs.Allocate(other))
	if !p.mshrs.FullForNormal() {
		t.Fatal("allocating a miss for the other line left a normal MSHR free")
	}
	check(false, "write permission, MSHRs full")
}

// TestChildIntoDirtyPool drives the recycling contract: models and
// snapshots retired into a pool in arbitrary dirty states — left there
// by their own walk — and reused for a new child must leave it
// indistinguishable from a fresh Clone, and detached from both its
// source and its own former state.
func TestChildIntoDirtyPool(t *testing.T) {
	for _, cfg := range cloneCfgs {
		rnd := lcg(uint64(cfg.Cores)*101 + uint64(cfg.Lines)*13 + uint64(cfg.Mode))
		for walk := 0; walk < 8; walk++ {
			pool := new(ModelPool)
			src := NewModel(cfg)
			dirty := pool.Child(NewModel(cfg)) // walks independently, then gets recycled
			for step := 0; step < 40; step++ {
				if n := dirty.NumChoices(); n > 0 && dirty.Violation() == "" {
					dirty.ApplyIndex(int(rnd.next() % uint64(n)))
				}
				n := src.NumChoices()
				if n == 0 || src.Violation() != "" {
					break
				}
				src.ApplyIndex(int(rnd.next() % uint64(n)))
				pool.Release(dirty)
				got := pool.Child(src)
				if got != dirty {
					t.Fatalf("cfg %+v walk %d step %d: the child did not reuse the retired model", cfg, walk, step)
				}
				// Privatize every snapshot, so each one is copied into a
				// retired dirty snapshot.
				for i := range got.ps {
					got.privatizePCU(i)
				}
				for b := range got.bs {
					got.privatizeBank(b)
				}
				if got.Fingerprint() != src.Fingerprint() {
					t.Fatalf("cfg %+v walk %d step %d: pooled child fingerprint diverges\n got %q\nwant %q",
						cfg, walk, step, got.Fingerprint(), src.Fingerprint())
				}
				checkClonedPCUs(t, got, src)
				if got.CanonicalFingerprint() != src.CanonicalFingerprint() {
					t.Fatalf("cfg %+v walk %d step %d: pooled child canonical fingerprint diverges", cfg, walk, step)
				}
				// Mutating the pooled child must never move the source.
				frozen := src.Fingerprint()
				if n := got.NumChoices(); n > 0 && got.Violation() == "" {
					got.ApplyIndex(int(rnd.next() % uint64(n)))
				}
				if src.Fingerprint() != frozen {
					t.Fatalf("cfg %+v walk %d step %d: mutating the pooled child moved the source", cfg, walk, step)
				}
				dirty = got // recycled again next iteration
			}
		}
	}
}

// childRound makes a child of src for each of its snapshots in turn,
// privatizes that snapshot, fingerprints the child and retires it.
func childRound(pool *ModelPool, src *Model) {
	for i := range src.ps {
		c := pool.Child(src)
		c.privatizePCU(i)
		c.FingerprintBytes()
		pool.Release(c)
	}
	for b := range src.bs {
		c := pool.Child(src)
		c.privatizeBank(b)
		c.FingerprintBytes()
		pool.Release(c)
	}
}

// TestModelChildZeroAlloc pins the copy-on-write steady state: once a
// pool is warm, making a child, privatizing any one of its snapshots,
// fingerprinting it and retiring it allocates nothing — the model
// header, the snapshot and all of its maps, arenas, event queues and
// cache frames come back out of the pool. The model checker does this
// once per explored transition. Besides a short walk in every
// cloneCfgs geometry, it checks a state for each kind of pending
// component state a clone has to copy (zeroAllocFeatures), found by
// random walks that must reach every one.
func TestModelChildZeroAlloc(t *testing.T) {
	check := func(name string, src *Model) {
		t.Helper()
		src.FingerprintBytes()
		pool := new(ModelPool)
		childRound(pool, src)
		if allocs := testing.AllocsPerRun(100, func() { childRound(pool, src) }); allocs != 0 {
			t.Errorf("%s: a warm pool's children allocate %v times per round; want 0", name, allocs)
		}
	}
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
		check(fmt.Sprintf("cfg %+v", cfg), src)
	}

	// A model core stalls on its own store, so it never issues the SoS
	// load that bypasses a blocked write; the walks issue that load
	// themselves.
	found := map[string]*Model{}
	note := func(m *Model) {
		for _, f := range zeroAllocFeatures {
			if found[f.name] == nil && f.in(m) {
				found[f.name] = m.Clone()
			}
		}
	}
	oneFrameWalks(func(m *Model) {
		note(m)
		if bypass := sosBypass(m); bypass != nil {
			note(bypass)
		}
	})
	for _, f := range zeroAllocFeatures {
		src := found[f.name]
		if src == nil {
			t.Errorf("no walk reached a state with %s; its zero-allocation check is vacuous", f.name)
			continue
		}
		check(f.name, src)
	}
}

// oneFrameWalks calls visit on every state of 40 random walks of at
// most 150 steps over each of three 2-core, 1-bank, 2-line models (one
// per mode). The model's banks hold every line, so its directory never
// evicts; these walks shrink each bank to one frame, which makes
// evictions, eviction-buffer entries, requeues and retries reachable.
func oneFrameWalks(visit func(*Model)) {
	cfgs := []ModelConfig{
		{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 4, Mode: ModeSquash},
		{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 4, Lockdowns: 2, Mode: ModeLockdown},
		{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 4, Mode: ModeTardis},
	}
	for _, cfg := range cfgs {
		rnd := lcg(uint64(cfg.Cores)*29 + uint64(cfg.Lockdowns)*3 + uint64(cfg.Mode))
		for walk := 0; walk < 40; walk++ {
			m := NewModel(cfg)
			for _, s := range m.bs {
				s.bank.array = cache.NewArray(1, 1)
			}
			for step := 0; step < 150; step++ {
				visit(m)
				n := m.NumChoices()
				if n == 0 || m.Violation() != "" {
					break
				}
				m.ApplyIndex(int(rnd.next() % uint64(n)))
			}
		}
	}
}

// TestBankFireZeroAlloc pins that a bank fires a retry and a tardis
// lease expiry without allocating. Each re-enters the transition table
// with a *Msg, which must not be a fresh heap copy of the event's
// message. The states come from the one-frame walks; the lease expiry
// is one that releases a parked write (the expiry that completes a
// leased line's eviction writes memory back, which allocates). Each run
// makes a child from a warm pool, privatizes the bank
// (TestModelChildZeroAlloc pins both at zero), fires the event on the
// private bank, whose sends go through the model's port, and retires the
// child.
func TestBankFireZeroAlloc(t *testing.T) {
	cases := []struct {
		name string
		is   func(*Bank, *deferred) bool
	}{
		{"retry", func(_ *Bank, ev *deferred) bool { return ev.kind == dfBankRetry }},
		{"lease expiry", func(b *Bank, ev *deferred) bool {
			if ev.kind != dfBankLease {
				return false
			}
			dl := b.lines[ev.line]
			return dl != nil && dl.hasTxn && dl.txn.write
		}},
	}
	for _, tc := range cases {
		var src *Model
		var ch choice
		oneFrameWalks(func(m *Model) {
			for b, s := range m.bs {
				for k := 0; src == nil && k < s.bank.events.Len(); k++ {
					if tc.is(s.bank, s.bank.events.Nth(k)) {
						src, ch = m.Clone(), choice{kind: chFireBank, comp: int32(b), idx: int32(k)}
					}
				}
			}
		})
		if src == nil {
			t.Errorf("no walk reached a pending bank %s", tc.name)
			continue
		}
		pool := new(ModelPool)
		fire := func() {
			c := pool.Child(src)
			c.privatizeBank(int(ch.comp))
			c.applyChoice(ch)
			pool.Release(c)
		}
		fire()
		if allocs := testing.AllocsPerRun(100, fire); allocs != 0 {
			t.Errorf("a bank %s (%s) allocates %v times; want 0", tc.name, src.DescribeChoice(ch), allocs)
		}
	}
}

// zeroAllocFeatures names the pending component state a snapshot copy
// must carry, each with a predicate on a model.
var zeroAllocFeatures = []struct {
	name string
	in   func(*Model) bool
}{
	{"a pending fetch-done", bankEvent(dfBankFetchDone)},
	{"a pending requeue", bankEvent(dfBankRequeue)},
	{"a pending retry", bankEvent(dfBankRetry)},
	{"a pending bank lease expiry", bankEvent(dfBankLease)},
	{"a pending PCU lease expiry", func(m *Model) bool {
		for _, s := range m.ps {
			for i := 0; i < s.pcu.events.Len(); i++ {
				if s.pcu.events.Stored(i).kind == dfPCULease {
					return true
				}
			}
		}
		return false
	}},
	{"two MSHRs on one line", func(m *Model) bool {
		for _, s := range m.ps {
			for _, l := range m.lines {
				var buf [4]*pcuMSHR
				if len(s.pcu.mshrs.LookupAll(l, buf[:0])) >= 2 {
					return true
				}
			}
		}
		return false
	}},
	{"a write-back buffer entry", func(m *Model) bool {
		for _, s := range m.ps {
			if len(s.pcu.wbBuf) > 0 {
				return true
			}
		}
		return false
	}},
	{"an eviction buffer entry", func(m *Model) bool {
		for _, s := range m.bs {
			if len(s.bank.evbuf) > 0 {
				return true
			}
		}
		return false
	}},
}

// sosBypass returns a copy of m in which a core with a blocked write
// has issued an SoS load of the write's line, which PCU.Load moves onto
// a reserved MSHR of its own; nil if no core has a blocked write.
func sosBypass(m *Model) *Model {
	for i, s := range m.ps {
		var line mem.Line
		blocked := false
		s.pcu.mshrs.ForEach(func(ms *pcuMSHR) {
			if ms.Txn.write && ms.Txn.blocked {
				line, blocked = ms.Line, true
			}
		})
		if blocked {
			c := m.Clone()
			c.ps[i].pcu.Load(0, 1<<40, line.Base(), true)
			return c
		}
	}
	return nil
}

// bankEvent reports whether any bank has a pending event of kind k.
func bankEvent(k deferredKind) func(*Model) bool {
	return func(m *Model) bool {
		for _, s := range m.bs {
			for i := 0; i < s.bank.events.Len(); i++ {
				if s.bank.events.Stored(i).kind == k {
					return true
				}
			}
		}
		return false
	}
}

// BenchmarkModelPrivatize isolates the model checker's clone layer: one
// op makes a child of a mid-closure 2c/1b/2l state from a warm pool,
// copies one snapshot into it and retires it, as exploring a choice of
// that component does (without the transition and the fingerprint).
func BenchmarkModelPrivatize(b *testing.B) {
	src := NewModel(ModelConfig{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: ModeSquash})
	rnd := lcg(7)
	for step := 0; step < 24 && src.NumChoices() > 0; step++ {
		src.ApplyIndex(int(rnd.next() % uint64(src.NumChoices())))
	}
	pool := new(ModelPool)
	childRound(pool, src)
	run := func(name string, privatize func(*Model)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := pool.Child(src)
				privatize(c)
				pool.Release(c)
			}
		})
	}
	for i := range src.ps {
		run(fmt.Sprintf("pcu%d", i), func(c *Model) { c.privatizePCU(i) })
	}
	for j := range src.bs {
		run(fmt.Sprintf("bank%d", j), func(c *Model) { c.privatizeBank(j) })
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
