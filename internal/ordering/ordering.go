// Package ordering holds a core's load-ordering state and makes the
// paper's lockdown decisions over it (Sections 3-4.2). It knows nothing
// of time, instructions or the PCU, and holds no pointers: a copy of a
// LoadOrder's slices is a copy of its whole state.
package ordering

import (
	"fmt"
	"slices"

	"wbsim/internal/mem"
)

// noSeq stands for "no such load" where a seq is compared: every
// in-flight load is older.
const noSeq = ^uint64(0)

// Load is one in-flight load or atomic.
type Load struct {
	Seq    uint64   // program-order age, unique among in-flight loads
	FwdSeq uint64   // seq of the store that forwarded the value (0 = memory)
	Line   mem.Line // the line read, once Performed
	Slot   int32    // the caller's name for the load's window slot
	// Performed means the value is bound; an atomic performs with its
	// read-modify-write.
	Performed bool
	Atomic    bool
}

// LoadOrder is the load-ordering state of one core: the in-flight loads
// in program order, the live Lockdown Table (LDT) entries and the seen
// lines. An LDT entry is a load that committed M-speculative; its
// lockdown holds until the load would have become ordered (Section
// 4.2), that is, until no load older than it is unperformed. The S bit
// of the paper is kept per line: an invalidation that hit a lockdown
// marks its line seen, and the delayed Ack is owed when the last
// lockdown of the line lifts.
//
// Loads before the Source-of-Speculation (SoS) load, the oldest
// unperformed one, are ordered; performed loads after it are
// M-speculative (Table 5). Two classes of M-speculative load hold no
// lockdown:
//
//   - store-forwarded loads: they read their own core's store early
//     (TSO's one legal relaxation); no other core can see them, so they
//     neither lock down nor need squashing;
//   - loads younger than a pending atomic: Section 3.7 forbids lockdowns
//     past an atomic (its write can block in WritersBlock, so such a
//     lockdown could deadlock). They stay squashable, and an
//     invalidation squashes them even in lockdown mode.
type LoadOrder struct {
	loads    []Load
	sos      int // index of the SoS load (len(loads) if all performed)
	ldt      []Load
	ldtSize  int
	lockdown bool
	seen     []mem.Line
	lifted   []mem.Line // Lift's result, reused
}

// New returns an empty LoadOrder for lqSize loads and an LDT of ldtSize
// entries, in lockdown mode or not (see Invalidate and Commit).
func New(lqSize, ldtSize int, lockdown bool) LoadOrder {
	return LoadOrder{loads: make([]Load, 0, lqSize), ldt: make([]Load, 0, ldtSize),
		ldtSize: ldtSize, lockdown: lockdown}
}

// Loads returns the in-flight loads, oldest first; the caller must not
// modify them.
func (o *LoadOrder) Loads() []Load { return o.loads }

// LDT returns the live LDT entries, oldest first; the caller must not
// modify them.
func (o *LoadOrder) LDT() []Load { return o.ldt }

// Seen returns the lines whose invalidation Ack is withheld; the caller
// must not modify them.
func (o *LoadOrder) Seen() []mem.Line { return o.seen }

// Push appends a dispatched load, unperformed, as the youngest.
func (o *LoadOrder) Push(seq uint64, slot int32, atomic bool) {
	o.loads = append(o.loads, Load{Seq: seq, Slot: slot, Atomic: atomic})
}

// find returns the index of the in-flight load seq, or, with ok false,
// that of the oldest younger one (len(Loads()) if none).
func (o *LoadOrder) find(seq uint64) (i int, ok bool) {
	lo, hi := 0, len(o.loads)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if o.loads[m].Seq < seq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(o.loads) && o.loads[lo].Seq == seq
}

// Pending returns the index of the load seq, and whether it is in flight
// and unperformed.
func (o *LoadOrder) Pending(seq uint64) (i int, ok bool) {
	i, ok = o.find(seq)
	return i, ok && !o.loads[i].Performed
}

// SoS returns the index and seq of the SoS load; with every load
// performed, len(Loads()) and a seq younger than any load's.
func (o *LoadOrder) SoS() (int, uint64) {
	if o.sos < len(o.loads) {
		return o.sos, o.loads[o.sos].Seq
	}
	return o.sos, noSeq
}

// PendingAtomic returns the seq of the oldest unperformed atomic, or a
// seq younger than any load's if none. Loads younger than it are
// atomic-speculative: they may not lock down or commit.
func (o *LoadOrder) PendingAtomic() uint64 {
	for _, l := range o.loads[o.sos:] {
		if l.Atomic && !l.Performed {
			return l.Seq
		}
	}
	return noSeq
}

// mspec returns the oldest M-speculative load of line read from memory
// whose seq lies strictly between after and before, or a zero Load.
func (o *LoadOrder) mspec(line mem.Line, after, before uint64) Load {
	for _, l := range o.loads[min(o.sos+1, len(o.loads)):] {
		if l.Performed && l.FwdSeq == 0 && l.Line == line && l.Seq > after && l.Seq < before {
			return l
		}
	}
	return Load{}
}

// HasLockdown reports whether a lockdown covers line: an M-speculative
// load older than any pending atomic, or a live LDT entry.
func (o *LoadOrder) HasLockdown(line mem.Line) bool {
	return o.mspec(line, 0, o.PendingAtomic()).Seq != 0 ||
		slices.ContainsFunc(o.ldt, func(e Load) bool { return e.Line == line })
}

// Perform binds load i, read from line and forwarded by store fwdSeq (0
// if read from memory). It reports whether the load became
// M-speculative from memory: locked down, or squashable without
// lockdowns.
func (o *LoadOrder) Perform(i int, line mem.Line, fwdSeq uint64) bool {
	l := &o.loads[i]
	if l.Performed {
		panic(fmt.Sprintf("ordering: load %d performs twice", l.Seq))
	}
	l.Performed, l.Line, l.FwdSeq = true, line, fwdSeq
	ordered := i == o.sos
	for o.sos < len(o.loads) && o.loads[o.sos].Performed {
		o.sos++
	}
	return fwdSeq == 0 && !ordered
}

// LDTRoom reports whether load seq may commit M-speculative now: its
// value was forwarded, so it needs no LDT entry, or the LDT has room.
func (o *LoadOrder) LDTRoom(seq uint64) bool {
	i, _ := o.find(seq)
	return o.loads[i].FwdSeq != 0 || len(o.ldt) < o.ldtSize
}

// Commit removes the performed load seq as it commits and reports
// whether it was M-speculative from memory. Such a load exports its
// lockdown to the LDT in lockdown mode; otherwise it is dropped, which
// is what makes out-of-order commit without lockdowns unsafe.
func (o *LoadOrder) Commit(seq uint64) (mspec bool) {
	i, ok := o.find(seq)
	if !ok {
		panic(fmt.Sprintf("ordering: committing load %d is not in flight", seq))
	}
	if mspec = i > o.sos && o.loads[i].FwdSeq == 0; mspec && o.lockdown {
		if len(o.ldt) == o.ldtSize {
			panic(fmt.Sprintf("ordering: load %d commits with the LDT full (LDTRoom must gate)", seq))
		}
		o.ldt = append(o.ldt, o.loads[i])
	}
	copy(o.loads[i:], o.loads[i+1:])
	o.loads = o.loads[:len(o.loads)-1]
	if i < o.sos {
		o.sos--
	}
	return mspec
}

// Squash removes every load with seq >= cut.
func (o *LoadOrder) Squash(cut uint64) {
	i, _ := o.find(cut)
	o.loads = o.loads[:i]
	o.sos = min(o.sos, i)
}

// Invalidate answers an invalidation of line. In lockdown mode a
// lockdown on the line withholds the Ack: the line is marked seen and
// nack is true. Otherwise the Ack goes, and victim is the load Evict
// names.
func (o *LoadOrder) Invalidate(line mem.Line) (victim Load, nack bool) {
	if o.lockdown && o.HasLockdown(line) {
		if !slices.Contains(o.seen, line) {
			o.seen = append(o.seen, line)
		}
		return Load{}, true
	}
	return o.Evict(line), false
}

// Evict returns the oldest load that must squash, with everything
// younger, when line stops receiving invalidations (Section 3.8) or
// receives one, or a zero Load. In lockdown mode only the loads that
// performed past a pending atomic do; without lockdowns every
// M-speculative load of the line does.
func (o *LoadOrder) Evict(line mem.Line) Load {
	if o.lockdown {
		return o.mspec(line, o.PendingAtomic(), noSeq)
	}
	return o.mspec(line, 0, noSeq)
}

// Lift frees the LDT entries whose loads would now be ordered, and
// returns the seen lines whose last lockdown has lifted, in the order
// they were seen: each is owed its delayed Ack. The result is valid
// until the next call.
func (o *LoadOrder) Lift() []mem.Line {
	_, oldest := o.SoS()
	live := o.ldt[:0]
	for _, e := range o.ldt {
		if e.Seq > oldest {
			live = append(live, e)
		}
	}
	o.ldt = live
	kept, lifted := o.seen[:0], o.lifted[:0]
	for _, line := range o.seen {
		if o.HasLockdown(line) {
			kept = append(kept, line)
		} else {
			lifted = append(lifted, line)
		}
	}
	o.seen, o.lifted = kept, lifted
	return lifted
}
