package cache

import (
	"fmt"

	"wbsim/internal/mem"
)

// MSHR tracks one outstanding line-granular miss. The Payload field is
// owned by the coherence layer (it stores transaction state there).
type MSHR struct {
	Line     mem.Line
	Reserved bool // allocated from the SoS-reserved pool
	Payload  any

	valid bool
}

// MSHRFile is a fully-associative miss-status holding register file with
// the resource partitioning of Section 3.5.2: `reserved` entries can only
// be claimed by SoS loads, so stores and evictions can never exhaust the
// file and block the one load whose completion every lockdown depends on.
type MSHRFile struct {
	entries  []MSHR
	index    map[mem.Line][]*MSHR
	capacity int
	reserved int
	inUse    int
	resInUse int

	// spare holds index slices whose lines CloneInto dropped, so a later
	// clone indexing a line again reuses one instead of allocating.
	spare [][]*MSHR
}

// NewMSHRFile builds a file with capacity total entries of which reserved
// are claimable only via AllocateReserved.
func NewMSHRFile(capacity, reserved int) *MSHRFile {
	if capacity <= 0 || reserved < 0 || reserved >= capacity {
		panic(fmt.Sprintf("cache: bad MSHR geometry capacity=%d reserved=%d", capacity, reserved))
	}
	return &MSHRFile{
		entries:  make([]MSHR, capacity),
		index:    make(map[mem.Line][]*MSHR, capacity),
		capacity: capacity,
		reserved: reserved,
	}
}

// Lookup returns the first MSHR outstanding for l, or nil. The common case
// is a single MSHR per line; a second one can exist transiently when a SoS
// load bypasses a blocked write (Section 3.5.2), in which case Lookup
// returns the oldest and LookupAll exposes both.
func (f *MSHRFile) Lookup(l mem.Line) *MSHR {
	es := f.index[l]
	if len(es) == 0 {
		return nil
	}
	return es[0]
}

// LookupAll returns every MSHR outstanding for l.
func (f *MSHRFile) LookupAll(l mem.Line) []*MSHR { return f.index[l] }

// FullForNormal reports whether a non-reserved allocation would fail.
func (f *MSHRFile) FullForNormal() bool {
	return f.inUse-f.resInUse >= f.capacity-f.reserved
}

// Allocate claims a normal MSHR for l. It returns nil when the
// non-reserved pool is exhausted.
func (f *MSHRFile) Allocate(l mem.Line) *MSHR {
	if f.FullForNormal() {
		return nil
	}
	return f.place(l, false)
}

// AllocateReserved claims an MSHR for a SoS load, drawing from the
// reserved pool if the normal pool is full. It returns nil only if every
// entry including the reserved ones is in use (which the protocol
// guarantees cannot happen for SoS loads, since at most one load per core
// is SoS and the pool holds at least one reserved entry).
func (f *MSHRFile) AllocateReserved(l mem.Line) *MSHR {
	if f.inUse >= f.capacity {
		return nil
	}
	reserved := f.FullForNormal()
	m := f.place(l, reserved)
	return m
}

func (f *MSHRFile) place(l mem.Line, reserved bool) *MSHR {
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid {
			e.valid = true
			e.Line = l
			e.Reserved = reserved
			e.Payload = nil
			f.index[l] = append(f.index[l], e)
			f.inUse++
			if reserved {
				f.resInUse++
			}
			return e
		}
	}
	return nil
}

// Free releases m.
func (f *MSHRFile) Free(m *MSHR) {
	if !m.valid {
		panic("cache: freeing invalid MSHR")
	}
	es := f.index[m.Line]
	for i, e := range es {
		if e == m {
			es = append(es[:i], es[i+1:]...)
			break
		}
	}
	if len(es) == 0 {
		delete(f.index, m.Line)
	} else {
		f.index[m.Line] = es
	}
	m.valid = false
	m.Payload = nil
	f.inUse--
	if m.Reserved {
		f.resInUse--
	}
}

// InUse reports the number of live entries.
func (f *MSHRFile) InUse() int { return f.inUse }

// Capacity reports the total entry count.
func (f *MSHRFile) Capacity() int { return f.capacity }

// ForEach visits live MSHRs in entry order.
func (f *MSHRFile) ForEach(fn func(*MSHR)) {
	for i := range f.entries {
		if f.entries[i].valid {
			fn(&f.entries[i])
		}
	}
}
