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
	stamp uint64 // allocation order among the file's entries
}

// MSHRFile is a fully-associative miss-status holding register file with
// the resource partitioning of Section 3.5.2: `reserved` entries can only
// be claimed by SoS loads, so stores and evictions can never exhaust the
// file and block the one load whose completion every lockdown depends on.
//
// Like the hardware it models, a lookup is a tag match across every
// entry. Each entry carries its line tag and an allocation stamp, so
// lookups return the MSHRs of a line oldest first, and the file holds
// no pointer but the payloads: copying it is a slice copy.
type MSHRFile struct {
	entries  []MSHR
	capacity int
	reserved int
	inUse    int
	resInUse int
	stamp    uint64 // the next allocation's stamp
}

// NewMSHRFile builds a file with capacity total entries of which reserved
// are claimable only via AllocateReserved.
func NewMSHRFile(capacity, reserved int) *MSHRFile {
	if capacity <= 0 || reserved < 0 || reserved >= capacity {
		panic(fmt.Sprintf("cache: bad MSHR geometry capacity=%d reserved=%d", capacity, reserved))
	}
	return &MSHRFile{
		entries:  make([]MSHR, capacity),
		capacity: capacity,
		reserved: reserved,
	}
}

// Lookup returns the oldest MSHR outstanding for l, or nil. The common
// case is a single MSHR per line; a second one can exist transiently
// when a SoS load bypasses a blocked write (Section 3.5.2), in which
// case Lookup returns the oldest and LookupAll exposes both.
func (f *MSHRFile) Lookup(l mem.Line) *MSHR {
	var oldest *MSHR
	for i := range f.entries {
		e := &f.entries[i]
		if e.valid && e.Line == l && (oldest == nil || e.stamp < oldest.stamp) {
			oldest = e
		}
	}
	return oldest
}

// LookupAll appends every MSHR outstanding for l to dst, oldest first,
// and returns the extended slice. Callers pass a small stack buffer, so
// a lookup allocates nothing and nested lookups never share storage.
func (f *MSHRFile) LookupAll(l mem.Line, dst []*MSHR) []*MSHR {
	start := len(dst)
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid || e.Line != l {
			continue
		}
		dst = append(dst, e)
		for j := len(dst) - 1; j > start && dst[j].stamp < dst[j-1].stamp; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

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
			e.stamp = f.stamp
			f.stamp++
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
