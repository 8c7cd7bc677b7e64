package check

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync"

	"wbsim/internal/coherence"
)

// stateStore is the deduplication set over state fingerprints, striped
// for concurrent insertion by the layer workers. Fingerprint bytes are
// interned into per-stripe arenas of fixed-size blocks instead of one
// Go string per state: a full block is left in place and a new one
// started, so interned bytes never move and are never copied on growth.
// The map buckets key on a 64-bit digest of the fingerprint (digest,
// which reads it a word at a time) and chain the entries that share it
// through entry.next. The digest only narrows the search: an entry
// matches only if its bytes equal the fingerprint, so a collision costs
// a compare, never a lost state. The per-state overhead is one entry
// struct and the fingerprint bytes themselves.
type stateStore struct {
	stripes [numStripes]storeStripe
}

const (
	numStripes = 64
	arenaBlock = 16 << 10 // bytes per fingerprint arena block
)

type storeStripe struct {
	mu      sync.Mutex
	arena   []byte            // current block; earlier full blocks stay referenced by their entries
	buckets map[uint64]*entry // digest -> chain head
	news    []*entry          // entries created since the last drain (one BFS layer)
}

// entry is one deduplicated state. Discovery-candidate fields hold the
// minimal (parent, pos) discoverer seen so far this layer, together with
// the child model that discoverer produced; the barrier freezes them
// when it assigns the id.
type entry struct {
	fp    []byte // interned fingerprint bytes (dedup key)
	next  *entry // next entry in the same digest chain
	id    int32  // node id, -1 until the barrier admits it
	depth int32

	// Chosen discovery transition: minimal (parent, pos) over all
	// discoverers this layer. rec is the choice in the parent's
	// chain-concrete coordinates.
	parent int32
	pos    int32
	rec    coherence.Choice

	// model is the concrete child state produced by the chosen
	// discoverer, so it equals the replay of the recorded choice path.
	// term and dead are computed once, from the first inserter's model.
	model      *coherence.Model
	term, dead bool
	dropped    bool // discarded by the MaxStates admission cap
}

func newStateStore() *stateStore {
	s := &stateStore{}
	for i := range s.stripes {
		s.stripes[i].buckets = make(map[uint64]*entry)
	}
	return s
}

// digest hashes a fingerprint eight bytes at a time: each little-endian
// word, the tail zero-padded to one more, is multiplied into the state
// and rotated in, and a final avalanche spreads every input bit over the
// low bits that pick the stripe. The constants are fixed, unlike
// hash/maphash's per-process seed, so every run lays out its stripes
// and chains alike.
func digest(b []byte) uint64 {
	const (
		k0 = 0x9E3779B97F4A7C15
		k1 = 0xBF58476D1CE4E5B9
		k2 = 0x94D049BB133111EB
	)
	h := uint64(len(b)) * k0
	for ; len(b) >= 8; b = b[8:] {
		h = bits.RotateLeft64(h^binary.LittleEndian.Uint64(b)*k1, 31) * k2
	}
	if len(b) > 0 {
		var w uint64
		for i, c := range b {
			w |= uint64(c) << (8 * i)
		}
		h = bits.RotateLeft64(h^w*k1, 31) * k2
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	return h ^ h>>33
}

// insert records one discovery of the state with fingerprint fp via
// (parent, pos, rec) and its child model, keeping the minimal
// discoverer and that discoverer's model. It returns the entry, whether
// this call created it, and the model that lost — the caller's own, or
// the one a smaller discoverer displaced — which nothing references any
// more and the caller recycles.
func (s *stateStore) insert(fp []byte, parent, pos int32, rec coherence.Choice, model *coherence.Model) (*entry, bool, *coherence.Model) {
	return s.insertDigest(digest(fp), fp, parent, pos, rec, model)
}

// insertDigest is insert with the digest of fp supplied by the caller,
// so tests can force two fingerprints into one chain. A new entry's term
// and dead flags are computed here, under the stripe lock: once the
// lock is released another worker may displace the model and recycle
// it.
func (s *stateStore) insertDigest(dig uint64, fp []byte, parent, pos int32, rec coherence.Choice, model *coherence.Model) (*entry, bool, *coherence.Model) {
	st := &s.stripes[dig%numStripes]
	st.mu.Lock()
	defer st.mu.Unlock()
	head := st.buckets[dig]
	for e := head; e != nil; e = e.next {
		if !bytes.Equal(e.fp, fp) {
			continue
		}
		if e.id < 0 && (parent < e.parent || (parent == e.parent && pos < e.pos)) {
			// Discovered earlier this same layer by a larger (parent, pos):
			// the new discoverer and its model win.
			e.parent, e.pos, e.rec = parent, pos, rec
			e.model, model = model, e.model
		}
		return e, false, model
	}
	e := &entry{
		fp:     st.intern(fp),
		next:   head,
		id:     -1,
		parent: parent, pos: pos, rec: rec,
		model: model,
	}
	if model != nil {
		e.term = model.Terminal()
		e.dead = !e.term && model.NumChoices() == 0
	}
	st.buckets[dig] = e
	st.news = append(st.news, e)
	return e, true, nil
}

// intern copies fp into the stripe's arena and returns the copy,
// starting a new block when the current one cannot hold it.
func (st *storeStripe) intern(fp []byte) []byte {
	if len(st.arena)+len(fp) > cap(st.arena) {
		st.arena = make([]byte, 0, max(arenaBlock, len(fp)))
	}
	n := len(st.arena)
	st.arena = append(st.arena, fp...)
	return st.arena[n:len(st.arena):len(st.arena)]
}

// seed installs the root entry (id 0) outside the worker path.
func (s *stateStore) seed(fp []byte, model *coherence.Model) *entry {
	e, created, _ := s.insert(fp, -1, -1, coherence.Choice{}, model)
	if !created {
		panic("check: store seeded twice")
	}
	return e
}

// drain appends every entry created since the previous drain to out,
// in stripe-scan order (the barrier sorts them before assigning ids).
func (s *stateStore) drain(out []*entry) []*entry {
	for i := range s.stripes {
		st := &s.stripes[i]
		st.mu.Lock()
		out = append(out, st.news...)
		st.news = st.news[:0]
		st.mu.Unlock()
	}
	return out
}
