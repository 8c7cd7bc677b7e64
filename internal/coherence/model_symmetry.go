package coherence

// Symmetry reduction. The model's components are interchangeable up to
// renaming: permuting core indices (together with the per-core program
// structure), line addresses (together with their directory homes), and
// the induced bank indices maps reachable states onto reachable states.
// The checker deduplicates on a canonical fingerprint — the
// lexicographically minimal serialization of the state over the model's
// automorphism group — so one representative stands for every state in
// its orbit.
//
// The group is computed by brute-force validation at first use: a
// candidate (core permutation π, line permutation σ) is an automorphism
// iff
//
//   - every core's program maps onto the target core's program:
//     σ(line(c, i)) == line(π(c), i) for every program step i (the
//     model's programs are structurally symmetric but not identical —
//     core c starts at line c — so most permutations fail this);
//   - σ respects directory homing: the induced bank map
//     β(l mod B) = σ(l) mod B is well defined (and then a bijection);
//   - the cache geometry is name-independent: every array the model
//     builds is single-set (L1/L2 are 1×1, the LLC is fully
//     associative), so set indexing cannot distinguish renamed lines.
//
// Configs are tiny (≤ a handful of cores/lines), so the factorial
// enumeration is instantaneous, and the group is cached on the Model
// and shared by Clone.
//
// Serialization under a permutation keeps every component's own state
// byte-for-byte but emits it in renamed order with renamed endpoint and
// line fields; order-insensitive collections that the identity
// fingerprint keeps in insertion order (directory sharer lists) are
// sorted, since insertion order is not preserved by renaming (and is
// not semantic: it only orders invalidation sends within a single
// transition, which the unordered network erases).

import (
	"bytes"

	"wbsim/internal/mem"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// symPerm is one automorphism: old-index → new-index maps plus their
// inverses (serialization iterates new indices). All maps of a group
// are slices of one shared array.
type symPerm struct {
	core, line, bank          []int32
	invCore, invLine, invBank []int32
}

// symGroup is the model's automorphism group; perms[0] is the identity.
type symGroup struct {
	perms []symPerm
}

// symmetry returns the cached automorphism group, computing it on first
// use. The group depends only on the config, so clones share it.
func (m *Model) symmetry() *symGroup {
	if m.sym == nil {
		m.sym = computeSymmetry(m.cfg)
	}
	return m.sym
}

// SymmetrySize reports the order of the model's automorphism group (the
// best-case state reduction factor).
func (m *Model) SymmetrySize() int { return len(m.symmetry().perms) }

// permutations returns all n! permutations of [0, n) in lexicographic
// order (so the identity comes first), packed n entries each into one
// slice.
func permutations(n int) []int32 {
	fact := 1
	for i := 2; i <= n; i++ {
		fact *= i
	}
	out := make([]int32, n, n*fact)
	for i := range out {
		out[i] = int32(i)
	}
	for len(out) < n*fact {
		out = append(out, out[len(out)-n:]...)
		nextPermutation(out[len(out)-n:])
	}
	return out
}

// nextPermutation rearranges p into its lexicographic successor; p must
// not be the last permutation.
func nextPermutation(p []int32) {
	i := len(p) - 2
	for p[i] >= p[i+1] {
		i--
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for a, b := i+1, len(p)-1; a < b; a, b = a+1, b-1 {
		p[a], p[b] = p[b], p[a]
	}
}

// computeSymmetry enumerates and validates every (core, line)
// permutation pair against the config's program and home structure. A
// first pass counts the automorphisms, so the second can carve every
// map of the group from one exactly sized array.
func computeSymmetry(cfg ModelConfig) *symGroup {
	cps, lps := permutations(cfg.Cores), permutations(cfg.Lines)
	n := 0
	eachAutomorphism(cfg, cps, lps, func(_, _, _ []int32) { n++ })
	if n == 0 {
		panic("model: symmetry group lost its identity element")
	}
	g := &symGroup{perms: make([]symPerm, 0, n)}
	maps := make([]int32, 0, 2*n*(cfg.Cores+cfg.Lines+cfg.Banks))
	// carve appends src (or its inverse) to maps and returns the copy.
	carve := func(src []int32, inverse bool) []int32 {
		lo, hi := len(maps), len(maps)+len(src)
		maps = maps[:hi]
		out := maps[lo:hi:hi]
		for i, v := range src {
			if inverse {
				out[v] = int32(i)
			} else {
				out[i] = v
			}
		}
		return out
	}
	eachAutomorphism(cfg, cps, lps, func(cp, lp, bank []int32) {
		g.perms = append(g.perms, symPerm{
			core: carve(cp, false), line: carve(lp, false), bank: carve(bank, false),
			invCore: carve(cp, true), invLine: carve(lp, true), invBank: carve(bank, true),
		})
	})
	return g
}

// eachAutomorphism calls f for every pair of a core permutation from
// cps and a line permutation from lps (both packed as permutations
// returns them) that buildPerm validates, in lexicographic order, with
// the induced bank permutation. The bank slice is reused from call to
// call.
func eachAutomorphism(cfg ModelConfig, cps, lps []int32, f func(cp, lp, bank []int32)) {
	bank := make([]int32, cfg.Banks)
	taken := make([]bool, cfg.Banks)
	for ci := 0; ci < len(cps); ci += cfg.Cores {
		for li := 0; li < len(lps); li += cfg.Lines {
			cp, lp := cps[ci:ci+cfg.Cores], lps[li:li+cfg.Lines]
			if buildPerm(cfg, cp, lp, bank, taken) {
				f(cp, lp, bank)
			}
		}
	}
}

// buildPerm validates one candidate pair and derives the induced bank
// permutation into bank (taken is scratch of the same length); it
// reports whether the pair is an automorphism.
func buildPerm(cfg ModelConfig, cp, lp, bank []int32, taken []bool) bool {
	// Program compatibility: core c's step i touches line (c+i) mod L,
	// so σ((c+i) mod L) must be (π(c)+i) mod L. Store/load alternation
	// is positional and identical across cores, so it needs no check.
	for c := 0; c < cfg.Cores; c++ {
		for i := 0; i < cfg.OpsPerCore; i++ {
			if lp[(c+i)%cfg.Lines] != (cp[c]+int32(i))%int32(cfg.Lines) {
				return false
			}
		}
	}
	// Home compatibility: line id li+1 is homed at bank (li+1) mod B;
	// the induced bank map must be a well-defined bijection.
	for i := range bank {
		bank[i] = -1
	}
	for li := 0; li < cfg.Lines; li++ {
		from := int32((li + 1) % cfg.Banks)
		to := int32((int(lp[li]) + 1) % cfg.Banks)
		if bank[from] >= 0 && bank[from] != to {
			return false
		}
		bank[from] = to
	}
	// Banks no modeled line homes at (possible when Lines < Banks) are
	// unconstrained; extend order-preservingly over the leftovers so the
	// result is deterministic.
	clear(taken)
	for _, to := range bank {
		if to >= 0 {
			if taken[to] {
				return false
			}
			taken[to] = true
		}
	}
	next := 0
	for i := range bank {
		if bank[i] >= 0 {
			continue
		}
		for taken[next] {
			next++
		}
		bank[i] = int32(next)
		taken[next] = true
	}
	return true
}

// mapEP renames an endpoint (cores first, then banks).
func (m *Model) mapEP(p *symPerm, ep network.Endpoint) network.Endpoint {
	if int(ep) < m.cfg.Cores {
		return network.Endpoint(p.core[ep])
	}
	return network.Endpoint(m.cfg.Cores + int(p.bank[int(ep)-m.cfg.Cores]))
}

// mapLine renames a line id (line ids are 1-based line indices).
func (m *Model) mapLine(p *symPerm, l mem.Line) mem.Line {
	return mem.Line(p.line[int(l)-1] + 1)
}

// ---------------------------------------------------------------------
// Canonical fingerprint
// ---------------------------------------------------------------------

// CanonicalFingerprint returns the lexicographically minimal
// serialization of the state over the automorphism group: two states
// share it exactly when some group element maps one onto the other.
func (m *Model) CanonicalFingerprint() string {
	return string(m.CanonicalFingerprintBytes())
}

// CanonicalFingerprintBytes is CanonicalFingerprint without the string
// allocation; the returned slice aliases scratch and is valid only until
// the next fingerprint call on the same model, or on any model of its
// pool.
func (m *Model) CanonicalFingerprintBytes() []byte {
	grp := m.symmetry()
	sc := m.scratch()
	if len(grp.perms) == 1 {
		b := m.fingerprintMapped(&grp.perms[0], sc.fp[:0], nil)
		sc.fp = b
		return b
	}
	bestBuf := sc.fp[:0]
	candBuf := sc.sym[:0]
	for i := range grp.perms {
		p := &grp.perms[i]
		var fb *fpBound
		if i > 0 {
			fb = &fpBound{bound: bestBuf}
		}
		candBuf = m.fingerprintMapped(p, candBuf[:0], fb)
		if fb != nil && fb.decided > 0 {
			continue // proven greater mid-serialization; cannot win
		}
		if i == 0 || bytes.Compare(candBuf, bestBuf) < 0 {
			bestBuf, candBuf = candBuf, bestBuf
		}
	}
	sc.fp, sc.sym = bestBuf, candBuf
	return bestBuf
}

// fpBound tracks an incremental lexicographic comparison of a candidate
// serialization against the best complete one found so far, so the
// canonical-minimum search can abandon a candidate as soon as a byte
// proves it cannot win. decided: 0 = equal so far, -1 = candidate is
// strictly smaller (it will win; stop comparing), +1 = strictly greater
// (abort the serialization).
type fpBound struct {
	bound   []byte
	matched int
	decided int8
}

// step folds the bytes appended since the last call into the
// comparison; it reports true when the candidate is proven greater and
// serialization may stop. Aborting is only ever a shortcut: a candidate
// that completes is still compared in full by the caller.
func (fb *fpBound) step(b []byte) bool {
	if fb == nil || fb.decided != 0 {
		return fb != nil && fb.decided > 0
	}
	lim := len(b)
	if len(fb.bound) < lim {
		lim = len(fb.bound)
	}
	for i := fb.matched; i < lim; i++ {
		if b[i] != fb.bound[i] {
			if b[i] > fb.bound[i] {
				fb.decided = 1
				return true
			}
			fb.decided = -1
			return false
		}
	}
	fb.matched = lim
	if len(b) > len(fb.bound) {
		fb.decided = 1 // the bound is a proper prefix: it sorts first
		return true
	}
	return false
}

// fingerprintMapped serializes the state renamed by p: components in
// new-index order, endpoint and line fields renamed, sharer lists
// sorted. With the identity permutation it matches Fingerprint except
// for the sharer-list sorting (which the canonical form needs so that
// renaming-order artifacts cannot split an orbit). A non-nil fb aborts
// the serialization (returning the partial buffer, fb.decided > 0) as
// soon as a section boundary proves the candidate lexicographically
// greater than fb.bound.
func (m *Model) fingerprintMapped(p *symPerm, b []byte, fb *fpBound) []byte {
	for nj := 0; nj < m.cfg.Cores; nj++ {
		c := &m.ps[p.invCore[nj]].core
		b = append(b, 'c')
		b = fpInt(b, int64(c.pc))
		b = append(b, fpBool(c.waitLoad, 0))
		b = fpInt(b, int64(c.locksUsed))
		for nli := 0; nli < m.cfg.Lines; nli++ {
			oli := p.invLine[nli]
			b = append(b, fpBool(c.locked[oli], 0)|fpBool(c.seen[oli], 1))
			b = fpInt(b, int64(c.observed[oli]))
		}
		if fb.step(b) {
			return b
		}
	}
	b = append(b, 'v')
	for nli := 0; nli < m.cfg.Lines; nli++ {
		oli := p.invLine[nli]
		b = fpInt(b, int64(m.latest[oli]))
		b = fpInt(b, int64(m.memWord(m.lines[oli])))
	}
	if fb.step(b) {
		return b
	}
	for nj := 0; nj < m.cfg.Cores; nj++ {
		pcu := m.ps[p.invCore[nj]].pcu
		b = append(b, 'p')
		for nli := 0; nli < m.cfg.Lines; nli++ {
			b = pcuLineKey(b, pcu, m.lines[p.invLine[nli]], int64(nli+1))
		}
		b = m.eventMultisetMapped(b, &pcu.events, pcu.id, p)
		if fb.step(b) {
			return b
		}
	}
	for nbj := 0; nbj < m.cfg.Banks; nbj++ {
		bank := m.bs[p.invBank[nbj]].bank
		b = append(b, 'b')
		for nli := 0; nli < m.cfg.Lines; nli++ {
			line := m.lines[p.invLine[nli]]
			if dl := bank.lines[line]; dl != nil {
				b = m.dirLineKeyMapped(append(b, 'l'), bank, dl, p)
			}
			if dl := bank.evbufFind(line); dl != nil {
				b = m.dirLineKeyMapped(append(b, 'e'), bank, dl, p)
			}
			if n := bank.earlyDelayedFor(line); n != 0 {
				b = append(b, 'd')
				b = fpInt(b, int64(nli+1))
				b = fpInt(b, int64(n))
			}
		}
		b = m.eventMultisetMapped(b, &bank.events, bank.id, p)
		if fb.step(b) {
			return b
		}
	}
	b = append(b, 'n')
	sc := m.scratch()
	kb, offs := sc.ka[:0], sc.kaOffs[:0]
	for _, f := range m.net {
		start := int32(len(kb))
		kb = m.msgKeyMapped(kb, &f.msg, f.env.Dst, p)
		offs = append(offs, start, int32(len(kb)))
	}
	b = appendSortedKeys(b, kb, offs)
	sc.ka, sc.kaOffs = kb, offs
	return b
}

// msgKeyMapped is msgKey with renamed line and endpoint fields.
func (m *Model) msgKeyMapped(b []byte, pm *Msg, dst network.Endpoint, p *symPerm) []byte {
	b = fpInt(b, int64(pm.Type))
	b = fpInt(b, int64(m.mapLine(p, pm.Line)))
	b = fpInt(b, int64(m.mapEP(p, pm.Src)))
	b = fpInt(b, int64(m.mapEP(p, dst)))
	return msgKeyTail(b, pm, m.mapEP(p, pm.Requester))
}

// msgKeyMappedSched is msgKeyMapped for not-yet-fired scheduled sends:
// the Src placeholder is serialized unrenamed.
func (m *Model) msgKeyMappedSched(b []byte, pm *Msg, dst network.Endpoint, p *symPerm) []byte {
	b = fpInt(b, int64(pm.Type))
	b = fpInt(b, int64(m.mapLine(p, pm.Line)))
	b = fpInt(b, int64(pm.Src))
	b = fpInt(b, int64(m.mapEP(p, dst)))
	return msgKeyTail(b, pm, m.mapEP(p, pm.Requester))
}

// eventKeyMapped is eventKey with renamed fields. Scheduled sends carry
// an unset Src placeholder — send() stamps the real source only at fire
// time — so their Src byte is emitted as-is, never renamed (the
// sender's identity is already encoded by the component's position in
// the serialization). Retry/requeue events carry received messages
// whose Src is a real endpoint and is renamed.
func (m *Model) eventKeyMapped(b []byte, ev *deferred, self network.Endpoint, p *symPerm) []byte {
	switch ev.kind {
	case dfPCUSend:
		return m.msgKeyMappedSched(append(b, 'p'), &ev.m, ev.dst, p)
	case dfBankSend:
		return m.msgKeyMappedSched(append(b, 'b'), &ev.m, ev.dst, p)
	case dfBankRetry:
		return m.msgKeyMapped(append(b, 'r'), &ev.m, self, p)
	case dfBankFetchDone:
		return fpInt(append(b, 'f'), int64(m.mapLine(p, ev.line)))
	case dfBankRequeue:
		return m.msgKeyMapped(append(b, 'q'), &ev.m, self, p)
	case dfBankLease:
		return fpInt(append(b, 'L'), int64(m.mapLine(p, ev.line)))
	case dfPCULease:
		// Expiry stamp excluded, matching eventKey: the model runs at
		// now=0, so every stamp is the same constant.
		return fpInt(append(b, 'x'), int64(m.mapLine(p, ev.line)))
	}
	panic(unknownEvent(ev))
}

// dirLineKeyMapped is dirLineKey with renamed fields and sorted sharers.
func (m *Model) dirLineKeyMapped(b []byte, bank *Bank, dl *dirLine, p *symPerm) []byte {
	b = fpInt(b, int64(m.mapLine(p, dl.line)))
	b = fpInt(b, int64(dl.kind))
	sc := m.scratch()
	sh := sc.sh[:0]
	for _, s := range dl.sharers {
		sh = append(sh, int64(m.mapEP(p, s)))
	}
	sortInt64(sh)
	sc.sh = sh
	b = fpInt(b, int64(len(sh)))
	for _, s := range sh {
		b = fpInt(b, s)
	}
	b = append(b, dirLineFlags(dl))
	if dl.hasOwner {
		b = fpInt(b, int64(m.mapEP(p, dl.owner)))
	}
	b = fpInt(b, int64(dl.data.Get(dl.line.Base())))
	if dl.hasTxn {
		t := &dl.txn
		b = append(b, dirTxnFlags(t))
		b = fpInt(b, int64(m.mapEP(p, t.requester)))
		// oldOwner is populated only for forwarding transactions; without
		// fwd it is the zero placeholder, not an endpoint reference.
		if t.fwd {
			b = fpInt(b, int64(m.mapEP(p, t.oldOwner)))
		} else {
			b = fpInt(b, int64(t.oldOwner))
		}
		b = fpInt(b, int64(t.acksPending))
		b = fpInt(b, int64(t.delayedPending))
	}
	b = fpInt(b, int64(len(dl.pending)))
	for i := range dl.pending {
		b = m.msgKeyMapped(b, &dl.pending[i], bank.id, p)
	}
	return b
}

// eventMultisetMapped appends the pending events of the component at
// endpoint self as a sorted multiset of renamed serialized events.
func (m *Model) eventMultisetMapped(b []byte, q *sim.Queue[deferred], self network.Endpoint, p *symPerm) []byte {
	b = append(b, 'E')
	sc := m.scratch()
	kb, offs := sc.ka[:0], sc.kaOffs[:0]
	for i := 0; i < q.Len(); i++ {
		start := int32(len(kb))
		kb = m.eventKeyMapped(kb, q.Stored(i), self, p)
		offs = append(offs, start, int32(len(kb)))
	}
	b = appendSortedKeys(b, kb, offs)
	sc.ka, sc.kaOffs = kb, offs
	return b
}

// sortInt64 is an allocation-free insertion sort for the tiny sharer
// lists the mapped fingerprint path sorts; sort.Slice would box a
// closure per call.
func sortInt64(s []int64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
