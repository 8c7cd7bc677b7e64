package ordering

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"wbsim/internal/mem"
)

// refEntry, refLDT and refCore are the reference for
// TestLoadOrderMatchesOracle: the core's scanning load-ordering
// decisions as they stood before LoadOrder took them over, over an LQ of
// pointers kept in program order. The method bodies are the old
// internal/cpu code with the timing cut out: a squash or a delayed Ack
// is recorded instead of performed, and a load's address is valid once
// it performs.
type refEntry struct {
	seq       uint64
	line      mem.Line
	performed bool
	fwdSeq    uint64 // seq of the store that forwarded the value (0 = memory)
	isAtomic  bool
}

type refLDT struct {
	seq  uint64
	line mem.Line
}

type refCore struct {
	lockdown bool // cfg.Lockdown
	export   bool // cfg.CommitMode == CommitOoOWB
	ldtSize  int

	lq        []*refEntry
	lqSoS     int
	ldt       []refLDT
	seenLines []mem.Line

	lockdownsSet int
	lifted       []mem.Line // LockdownLifted calls, in order
}

func (c *refCore) sosIndex() int {
	for c.lqSoS < len(c.lq) && c.lq[c.lqSoS].performed {
		c.lqSoS++
	}
	return c.lqSoS
}

func (c *refCore) lqSearch(seq uint64) int {
	lo, hi := 0, len(c.lq)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.lq[m].seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (c *refCore) isOrdered(e *refEntry) bool {
	return e.seq <= c.oldestUnperformedLoad()
}

func (c *refCore) oldestUnperformedLoad() uint64 {
	if i := c.sosIndex(); i < len(c.lq) {
		return c.lq[i].seq
	}
	return noSeq
}

func (c *refCore) hasLockdownLQ(line mem.Line) bool {
	fence := c.oldestPendingAtomicSeq()
	sos := c.sosIndex()
	for i := sos + 1; i < len(c.lq); i++ {
		e := c.lq[i]
		if e.performed && e.line == line && e.fwdSeq == 0 && e.seq < fence {
			return true
		}
	}
	return false
}

func (c *refCore) oldestPendingAtomicSeq() uint64 {
	for _, e := range c.lq[c.sosIndex():] {
		if e.isAtomic && !e.performed {
			return e.seq
		}
	}
	return ^uint64(0)
}

func (c *refCore) hasLockdownLDT(line mem.Line) bool {
	for i := range c.ldt {
		if c.ldt[i].line == line {
			return true
		}
	}
	return false
}

func (c *refCore) HasLockdown(line mem.Line) bool {
	return c.hasLockdownLQ(line) || c.hasLockdownLDT(line)
}

func (c *refCore) markSeen(line mem.Line) {
	for _, l := range c.seenLines {
		if l == line {
			return
		}
	}
	c.seenLines = append(c.seenLines, line)
}

func (c *refCore) resolveLockdowns() {
	if len(c.seenLines) == 0 {
		return
	}
	kept := c.seenLines[:0]
	for _, line := range c.seenLines {
		if c.HasLockdown(line) {
			kept = append(kept, line)
		} else {
			c.lifted = append(c.lifted, line)
		}
	}
	c.seenLines = kept
}

// onOrderingChange is the old function's LDT release and lockdown
// resolution; the SoS load's retry is timing.
func (c *refCore) onOrderingChange() {
	oldest, live := c.oldestUnperformedLoad(), c.ldt[:0]
	for _, l := range c.ldt {
		if l.seq > oldest {
			live = append(live, l)
		}
	}
	c.ldt = live
	c.resolveLockdowns()
}

func (c *refCore) performLoad(e *refEntry, line mem.Line, fwdSeq uint64) {
	e.performed = true
	e.line = line
	e.fwdSeq = fwdSeq
	if fwdSeq == 0 && !c.isOrdered(e) {
		c.lockdownsSet++
	}
	c.onOrderingChange()
}

func (c *refCore) ldtFree() bool { return len(c.ldt) < c.ldtSize }

// commitGate is canCommit's LDT clause for an M-speculative load.
func (c *refCore) commitGate(e *refEntry) bool { return e.fwdSeq != 0 || c.ldtFree() }

// removeLoad returns whether the load was M-speculative (MSpecCommits).
func (c *refCore) removeLoad(e *refEntry) (mspec bool) {
	idx := c.lqSearch(e.seq)
	ordered := idx <= c.sosIndex()
	if !ordered && e.fwdSeq == 0 {
		mspec = true
		if c.export {
			if !c.ldtFree() {
				panic("LDT overflow (canCommit must gate)")
			}
			c.ldt = append(c.ldt, refLDT{seq: e.seq, line: e.line})
		}
	}
	c.lq = append(c.lq[:idx], c.lq[idx+1:]...)
	if idx < c.lqSoS {
		c.lqSoS--
	}
	c.onOrderingChange()
	return mspec
}

// OnInvalidation returns the Nack and the seq squashed from (0: none).
func (c *refCore) OnInvalidation(line mem.Line) (nack bool, squash uint64) {
	if c.lockdown {
		if c.HasLockdown(line) {
			c.markSeen(line)
			return true, 0
		}
		return false, c.squashAtomicSpec(line)
	}
	return false, c.squashMSpec(line)
}

func (c *refCore) squashAtomicSpec(line mem.Line) uint64 {
	fence := c.oldestPendingAtomicSeq()
	for _, e := range c.lq {
		if e.performed && e.line == line && e.fwdSeq == 0 && e.seq > fence {
			return e.seq
		}
	}
	return 0
}

func (c *refCore) OnOwnedEviction(line mem.Line) uint64 {
	if !c.lockdown {
		return c.squashMSpec(line)
	}
	return c.squashAtomicSpec(line)
}

func (c *refCore) squashMSpec(line mem.Line) uint64 {
	sos := c.sosIndex()
	for i := sos + 1; i < len(c.lq); i++ {
		e := c.lq[i]
		if e.performed && e.line == line && e.fwdSeq == 0 {
			return e.seq
		}
	}
	return 0
}

// squashFrom is the old squash's LQ trim, then its onOrderingChange.
func (c *refCore) squashFrom(cut uint64) {
	for i, e := range c.lq {
		if e.seq >= cut {
			c.lq = c.lq[:i]
			break
		}
	}
	c.lqSoS = min(c.lqSoS, len(c.lq))
	c.onOrderingChange()
}

// oracleMode is a core configuration: the coherence mode and which loads
// may commit.
type oracleMode struct {
	name     string
	lockdown bool
	export   bool // an M-speculative load may commit through the LDT (ooo-wb)
	unsafe   bool // any performed load may commit (ooo-unsafe)
}

var oracleModes = []oracleMode{
	{name: "ooo-wb", lockdown: true, export: true},
	{name: "inorder-wb", lockdown: true},
	{name: "squash"},
	{name: "ooo-unsafe", unsafe: true},
}

// TestLoadOrderMatchesOracle drives random sequences of dispatch,
// perform (forwarded or from memory), commit, squash, invalidation and
// owned eviction through a LoadOrder and through the reference, in every
// mode and at LDT sizes 0, 1, 2 and 32, and requires every decision to
// agree: each Nack or Ack, each squash seq, each commit gate and
// M-speculative commit, each LDT export and delayed Ack, LockdownsSet,
// and the whole state after every step.
func TestLoadOrderMatchesOracle(t *testing.T) {
	const lqSize, lines, steps = 8, 3, 400
	// seen counts the decisions of each kind per mode, so the test
	// cannot pass by never reaching them.
	type counts struct{ mspecPerforms, mspecCommits, nacks, squashes, lifts int }
	seen := map[string]*counts{}
	for _, m := range oracleModes {
		seen[m.name] = &counts{}
	}
	defer func() {
		for _, m := range oracleModes {
			n := *seen[m.name]
			t.Logf("%s: %+v", m.name, n)
			if n.mspecPerforms == 0 || (m.lockdown && (n.nacks == 0 || n.lifts == 0)) ||
				(!m.lockdown && n.squashes == 0) || ((m.export || m.unsafe) && n.mspecCommits == 0) {
				t.Errorf("%s: the random walks missed a kind of decision: %+v", m.name, n)
			}
		}
	}()
	for _, m := range oracleModes {
		for _, ldtSize := range []int{0, 1, 2, 32} {
			for seed := int64(1); seed <= 40; seed++ {
				name := fmt.Sprintf("%s/ldt%d/seed%d", m.name, ldtSize, seed)
				rng := rand.New(rand.NewSource(seed))
				o := New(lqSize, ldtSize, m.lockdown)
				ref := &refCore{lockdown: m.lockdown, export: m.export, ldtSize: ldtSize}
				var lockdownsSet, lifted, step int
				var next uint64
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("%s step %d: "+format, append([]any{name, step}, args...)...)
				}
				// lift runs the ordering change that follows a perform, a
				// commit or a squash in the core, and compares the delayed
				// Acks with those of the reference's own change.
				lift := func() {
					got := o.Lift()
					if want := ref.lifted[lifted:]; !slices.Equal(got, want) {
						fail("lifted %v, reference %v", got, want)
					}
					lifted = len(ref.lifted)
					seen[m.name].lifts += len(got)
				}
				squash := func(cut uint64) {
					o.Squash(cut)
					ref.squashFrom(cut)
					lift()
				}
				for ; step < steps; step++ {
					line := mem.Line(rng.Intn(lines))
					switch r := rng.Intn(100); {
					case r < 25: // dispatch
						if len(o.Loads()) == lqSize {
							break
						}
						next += 1 + uint64(rng.Intn(2))
						atomic := rng.Intn(8) == 0
						o.Push(next, int32(next%64), atomic)
						ref.lq = append(ref.lq, &refEntry{seq: next, isAtomic: atomic})
					case r < 55: // perform
						var pending []int
						for i := range o.Loads() {
							if !o.Loads()[i].Performed {
								pending = append(pending, i)
							}
						}
						if len(pending) == 0 {
							break
						}
						i := pending[rng.Intn(len(pending))]
						var fwd uint64
						if !o.Loads()[i].Atomic && o.Loads()[i].Seq > 1 && rng.Intn(4) == 0 {
							fwd = o.Loads()[i].Seq - 1
						}
						if o.Perform(i, line, fwd) {
							lockdownsSet++
							seen[m.name].mspecPerforms++
						}
						ref.performLoad(ref.lq[i], line, fwd)
						lift()
						if lockdownsSet != ref.lockdownsSet {
							fail("LockdownsSet %d, reference %d", lockdownsSet, ref.lockdownsSet)
						}
					case r < 75: // commit
						sos, _ := o.SoS()
						atomic := o.PendingAtomic()
						var ready []int
						for i := range o.Loads() {
							l := o.Loads()[i]
							if !l.Performed {
								continue
							}
							mspecOK := m.unsafe
							if m.export && l.Seq < atomic {
								gate := o.LDTRoom(l.Seq)
								if want := ref.commitGate(ref.lq[i]); gate != want {
									fail("LDTRoom(%d) = %v, reference %v", l.Seq, gate, want)
								}
								mspecOK = gate
							}
							if i < sos || mspecOK {
								ready = append(ready, i)
							}
						}
						if len(ready) == 0 {
							break
						}
						i := ready[rng.Intn(len(ready))]
						seq := o.Loads()[i].Seq
						mspec := o.Commit(seq)
						if want := ref.removeLoad(ref.lq[i]); mspec != want {
							fail("Commit(%d) = %v, reference M-speculative %v", seq, mspec, want)
						}
						if mspec {
							seen[m.name].mspecCommits++
						}
						lift()
					case r < 80: // branch or memory-dependence squash
						if len(o.Loads()) > 0 {
							squash(o.Loads()[rng.Intn(len(o.Loads()))].Seq)
						}
					case r < 95: // invalidation
						victim, nack := o.Invalidate(line)
						wantNack, wantSquash := ref.OnInvalidation(line)
						if nack != wantNack || victim.Seq != wantSquash {
							fail("Invalidate(%d) = Nack %v, squash %d; reference %v, %d",
								line, nack, victim.Seq, wantNack, wantSquash)
						}
						if nack {
							seen[m.name].nacks++
						}
						if victim.Seq != 0 {
							seen[m.name].squashes++
							squash(victim.Seq)
						}
					default: // owned eviction
						victim := o.Evict(line)
						if want := ref.OnOwnedEviction(line); victim.Seq != want {
							fail("Evict(%d) squashes %d, reference %d", line, victim.Seq, want)
						}
						if victim.Seq != 0 {
							seen[m.name].squashes++
							squash(victim.Seq)
						}
					}
					compareOracle(t, name, step, &o, ref, lines)
				}
			}
		}
	}
}

// compareOracle fails the test unless o's whole state, and every query
// on it, matches the reference's.
func compareOracle(t *testing.T, name string, step int, o *LoadOrder, ref *refCore, lines int) {
	t.Helper()
	if len(o.Loads()) != len(ref.lq) {
		t.Fatalf("%s step %d: %d loads, reference %d", name, step, len(o.Loads()), len(ref.lq))
	}
	for i, e := range ref.lq {
		l := o.Loads()[i]
		if l.Seq != e.seq || l.Performed != e.performed || l.FwdSeq != e.fwdSeq || l.Atomic != e.isAtomic ||
			(e.performed && l.Line != e.line) {
			t.Fatalf("%s step %d: load %d is %+v, reference %+v", name, step, i, l, *e)
		}
	}
	var ldt []refLDT
	for _, e := range o.LDT() {
		ldt = append(ldt, refLDT{e.Seq, e.Line})
	}
	if !slices.Equal(ldt, ref.ldt) {
		t.Fatalf("%s step %d: LDT %v, reference %v", name, step, ldt, ref.ldt)
	}
	if !slices.Equal(o.Seen(), ref.seenLines) {
		t.Fatalf("%s step %d: seen %v, reference %v", name, step, o.Seen(), ref.seenLines)
	}
	if sos, seq := o.SoS(); sos != ref.sosIndex() || seq != ref.oldestUnperformedLoad() {
		t.Fatalf("%s step %d: SoS %d (seq %d), reference %d (seq %d)",
			name, step, sos, seq, ref.sosIndex(), ref.oldestUnperformedLoad())
	}
	if got, want := o.PendingAtomic(), ref.oldestPendingAtomicSeq(); got != want {
		t.Fatalf("%s step %d: PendingAtomic %d, reference %d", name, step, got, want)
	}
	for line := mem.Line(0); line < mem.Line(lines); line++ {
		if got, want := o.HasLockdown(line), ref.HasLockdown(line); got != want {
			t.Fatalf("%s step %d: HasLockdown(%d) = %v, reference %v", name, step, line, got, want)
		}
	}
}

// TestLoadOrderPointerFree walks LoadOrder's type: no field, nor any
// element of a slice field, may hold a pointer, map, interface, func,
// channel or string, so copying a LoadOrder's slices copies its whole
// state (a flat checker snapshot relies on this).
func TestLoadOrderPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Slice, reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Interface,
			reflect.Func, reflect.Chan, reflect.String:
			t.Errorf("%s is a %v", path, typ.Kind())
		}
	}
	walk("LoadOrder", reflect.TypeOf(LoadOrder{}))
}

// TestLoadOrderZeroAlloc: once its slices have grown, a LoadOrder
// allocates nothing to push, perform, commit (exporting to the LDT),
// squash, answer an invalidation (Nack or squash) or an eviction, or
// lift lockdowns.
func TestLoadOrderZeroAlloc(t *testing.T) {
	o := New(8, 2, true)
	var seq uint64
	const line = mem.Line(5)
	round := func() {
		a, b, c := seq+1, seq+2, seq+3
		seq += 3
		o.Push(a, 0, false)
		o.Push(b, 1, false)
		o.Perform(1, line, 0) // b is M-speculative: a lockdown on line
		if _, nack := o.Invalidate(line); !nack {
			t.Fatal("an invalidation of a locked-down line was acknowledged")
		}
		if mspec := o.Commit(b); !mspec || len(o.LDT()) != 1 {
			t.Fatal("the M-speculative load did not export its lockdown")
		}
		o.Push(c, 2, false)
		o.Perform(1, line+1, 0)
		o.Squash(c)
		o.Evict(line)
		o.Perform(0, line, 0)
		if lifted := o.Lift(); len(lifted) != 1 || len(o.LDT()) != 0 {
			t.Fatalf("lifted %v with LDT %v, want line %d and an empty LDT", lifted, o.LDT(), line)
		}
		o.Commit(a)
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("a warm round allocates %.1f times", n)
	}
}
