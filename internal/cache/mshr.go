package cache

import (
	"fmt"

	"wbsim/internal/mem"
)

// MSHR tracks one outstanding line-granular miss. Txn is the coherence
// layer's transaction state, held by value in the entry. A freed
// entry keeps the Txn its last holder left, so a new holder can reuse
// the storage that transaction's slices grew; whoever claims an entry
// resets its Txn.
type MSHR[T any] struct {
	Line     mem.Line
	Reserved bool // allocated from the SoS-reserved pool
	Txn      T

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
// no pointer but those inside its transactions.
type MSHRFile[T any] struct {
	entries  []MSHR[T]
	capacity int
	reserved int
	inUse    int
	resInUse int
	stamp    uint64 // the next allocation's stamp
}

// NewMSHRFile builds a file with capacity total entries of which reserved
// are claimable only via AllocateReserved.
func NewMSHRFile[T any](capacity, reserved int) *MSHRFile[T] {
	if capacity <= 0 || reserved < 0 || reserved >= capacity {
		panic(fmt.Sprintf("cache: bad MSHR geometry capacity=%d reserved=%d", capacity, reserved))
	}
	return &MSHRFile[T]{
		entries:  make([]MSHR[T], capacity),
		capacity: capacity,
		reserved: reserved,
	}
}

// Lookup returns the oldest MSHR outstanding for l, or nil. The common
// case is a single MSHR per line; a second one can exist transiently
// when a SoS load bypasses a blocked write (Section 3.5.2), in which
// case Lookup returns the oldest and LookupAll exposes both.
func (f *MSHRFile[T]) Lookup(l mem.Line) *MSHR[T] {
	var oldest *MSHR[T]
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
func (f *MSHRFile[T]) LookupAll(l mem.Line, dst []*MSHR[T]) []*MSHR[T] {
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
func (f *MSHRFile[T]) FullForNormal() bool {
	return f.inUse-f.resInUse >= f.capacity-f.reserved
}

// Allocate claims a normal MSHR for l. It returns nil when the
// non-reserved pool is exhausted.
func (f *MSHRFile[T]) Allocate(l mem.Line) *MSHR[T] {
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
func (f *MSHRFile[T]) AllocateReserved(l mem.Line) *MSHR[T] {
	if f.inUse >= f.capacity {
		return nil
	}
	reserved := f.FullForNormal()
	m := f.place(l, reserved)
	return m
}

func (f *MSHRFile[T]) place(l mem.Line, reserved bool) *MSHR[T] {
	for i := range f.entries {
		e := &f.entries[i]
		if !e.valid {
			e.valid = true
			e.Line = l
			e.Reserved = reserved
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

// Free releases m. Its Txn stays as it is until the entry's next holder
// resets it.
func (f *MSHRFile[T]) Free(m *MSHR[T]) {
	if !m.valid {
		panic("cache: freeing invalid MSHR")
	}
	m.valid = false
	f.inUse--
	if m.Reserved {
		f.resInUse--
	}
}

// InUse reports the number of live entries.
func (f *MSHRFile[T]) InUse() int { return f.inUse }

// Capacity reports the total entry count.
func (f *MSHRFile[T]) Capacity() int { return f.capacity }

// ForEach visits live MSHRs in entry order.
func (f *MSHRFile[T]) ForEach(fn func(*MSHR[T])) {
	for i := range f.entries {
		if f.entries[i].valid {
			fn(&f.entries[i])
		}
	}
}
