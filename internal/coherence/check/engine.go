package check

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"wbsim/internal/coherence"
)

// The explorer is a layer-synchronous BFS: every node of depth d is
// expanded (in parallel) before any node of depth d+1. Two properties
// hang off that structure:
//
//   - Determinism at any worker count. Workers race only inside one
//     layer; every cross-layer decision — which transition is the
//     canonical discoverer of a new state, what id it gets, which
//     violation stops the run — is resolved at the layer barrier by a
//     total order (parent id, choice position) that does not depend on
//     scheduling. Node ids are assigned by sorting the layer's new
//     states by their chosen discoverer, which reproduces the exact
//     discovery order of the old sequential explorer.
//
//   - Cheap state materialization. Nodes carry models for exactly two
//     live layers (the one being expanded and the one being built).
//     Expanding a node makes one copy-on-write child per choice, which
//     shares every component snapshot with its parent except the one
//     the choice touches. The store keeps, for every new state, the
//     model of its chosen (minimal) discoverer, so cached models are
//     chain-concrete by construction: each equals the replay of its
//     recorded choice path. Counterexample rendering replays from the
//     root and reproduces them exactly.
//
// Symmetry reduction needs no structure of its own: it only changes the
// dedup key to the state's canonical orbit fingerprint.
type engine struct {
	cfg     Config
	workers int
	sym     bool

	store  *stateStore
	nodes  []*entry
	models []*coherence.Model // chain-concrete models; non-nil for live layers only

	// The state graph's edges, deduplicated per source, in one packed
	// array: node i's successors are succ[succOff[i]:succOff[i+1]].
	// succOff grows by one layer at each barrier.
	succ    []int32
	succOff []int32

	res        *Result
	droppedAny bool

	// pools holds retired models and component snapshots, one pool per
	// worker so expansion recycles without locking; the barrier (single-
	// threaded) refills them round-robin with the layer's discarded and
	// retired models.
	pools []*coherence.ModelPool
	rr    int

	// Layer scratch kept across layers: one output per worker, the
	// barrier's list of new entries, and its per-source edge counts.
	outs []workerOut
	news []*entry
	cnt  []int32
}

const (
	stopViolation = iota // transition produced a safety violation
	stopTermViol         // new terminal state fails CheckTerminal
	stopDeadlock         // new state has no transitions and is not drained
	stopRootStuck        // the root itself has no transitions
)

// stopCand is one run-ending event found during a layer; the barrier
// picks the minimal (parent, pos) candidate so the reported
// counterexample is independent of worker scheduling.
type stopCand struct {
	kind   int8
	parent int32
	pos    int32
	rec    coherence.Choice
	e      *entry // target entry for stopTermViol/stopDeadlock
}

type edgeRec struct {
	from int32
	to   *entry
}

// workerOut is one worker's layer-local output, merged at the barrier
// in worker-index order. Its slices keep their storage from layer to
// layer.
type workerOut struct {
	wi          int // index into engine.pools
	transitions int
	chs         []coherence.Choice // the choices of the node being expanded
	edges       []edgeRec
	stops       []stopCand
	panicked    any
}

// recycleRR spreads barrier-side retirements across the worker pools.
func (en *engine) recycleRR(m *coherence.Model) {
	if m != nil {
		en.pools[en.rr].Release(m)
		en.rr = (en.rr + 1) % len(en.pools)
	}
}

// keyOf returns the dedup key (scratch-backed; the store copies it into
// its arena on insert).
func (en *engine) keyOf(m *coherence.Model) []byte {
	if en.sym {
		return m.CanonicalFingerprintBytes()
	}
	return m.FingerprintBytes()
}

// expandNode generates every successor of one node into the worker's
// layer-local output.
func (en *engine) expandNode(id int32, w *workerOut) {
	pool := en.pools[w.wi]
	m := en.models[id]
	pool.Adopt(m)
	// The children's enumerations reuse the pool's scratch, so keep a
	// copy of the parent's.
	w.chs = append(w.chs[:0], m.Choices()...)
	chs := w.chs
	if len(chs) == 0 {
		if id == 0 && !en.nodes[0].term {
			w.stops = append(w.stops, stopCand{kind: stopRootStuck, parent: -1, pos: -1})
		}
		return
	}
	last := len(chs) - 1
	for pos, ch := range chs {
		if m.Unchanged(ch) {
			// A self-loop: the child would be its parent again.
			w.transitions++
			w.edges = append(w.edges, edgeRec{id, en.nodes[id]})
			continue
		}
		c := pool.Child(m)
		if pos == last {
			// The parent's last child: retire the parent first, so the
			// snapshot the choice touches is mutated in place when no
			// sibling still holds it.
			en.models[id] = nil
			pool.Release(m)
		}
		c.Apply(ch)
		w.transitions++
		if c.Violation() != "" {
			w.stops = append(w.stops, stopCand{kind: stopViolation, parent: id, pos: int32(pos), rec: ch})
			pool.Release(c)
			continue
		}
		e, _, spare := en.store.insert(en.keyOf(c), id, int32(pos), ch, c)
		if spare != nil {
			pool.Release(spare) // a duplicate child, or the model it displaced
		}
		w.edges = append(w.edges, edgeRec{id, e})
	}
	if en.models[id] != nil { // the last choice was a self-loop
		en.models[id] = nil
		pool.Release(m)
	}
}

// runLayer expands nodes [lo, hi), then runs the barrier: sort and
// admit new states, materialize their models, resolve stop events and
// merge edges. Returns true if a stop event ended the run (res is then
// final).
func (en *engine) runLayer(lo, hi int32, depth int32) bool {
	outs := en.outs
	for i := range outs {
		w := &outs[i]
		w.wi, w.transitions, w.panicked = i, 0, nil
		w.edges, w.stops = w.edges[:0], w.stops[:0]
	}
	if en.workers == 1 {
		for id := lo; id < hi; id++ {
			en.expandNode(id, &outs[0])
		}
	} else {
		var cursor int64
		var wg sync.WaitGroup
		for wi := 0; wi < en.workers; wi++ {
			wg.Add(1)
			go func(w *workerOut) {
				defer wg.Done()
				defer func() {
					if r := recover(); r != nil {
						w.panicked = r
					}
				}()
				for {
					i := atomic.AddInt64(&cursor, 1) - 1
					if i >= int64(hi-lo) {
						return
					}
					en.expandNode(lo+int32(i), w)
				}
			}(&outs[wi])
		}
		wg.Wait()
		for i := range outs {
			if outs[i].panicked != nil {
				panic(outs[i].panicked)
			}
		}
	}

	for i := range outs {
		en.res.Transitions += outs[i].transitions
	}

	// Admit new states: sort by chosen discoverer so ids reproduce the
	// sequential explorer's discovery order at any worker count.
	news := en.store.drain(en.news[:0])
	en.news = news
	sort.Slice(news, func(i, j int) bool {
		if news[i].parent != news[j].parent {
			return news[i].parent < news[j].parent
		}
		return news[i].pos < news[j].pos
	})
	admit := news
	if en.cfg.MaxStates > 0 {
		room := en.cfg.MaxStates - len(en.nodes)
		if room < 0 {
			room = 0
		}
		if len(news) > room {
			for _, e := range news[room:] {
				e.dropped = true
			}
			admit = news[:room]
			en.droppedAny = true
		}
	}
	newStart := int32(len(en.nodes))
	for _, e := range admit {
		e.id = int32(len(en.nodes))
		e.depth = depth + 1
		en.nodes = append(en.nodes, e)
	}
	// The entries hold their chosen discoverers' models, which are
	// chain-concrete.
	for _, e := range admit {
		mdl := e.model
		e.model = nil
		en.models = append(en.models, mdl)
		if en.cfg.CollectStates {
			if en.sym {
				en.res.StateSet = append(en.res.StateSet, string(e.fp))
			} else {
				en.res.StateSet = append(en.res.StateSet, mdl.CanonicalFingerprint())
			}
		}
	}
	for _, e := range news {
		if e.model != nil { // dropped entries release their models too
			en.recycleRR(e.model)
			e.model = nil
		}
	}

	// Stop events: gather candidates and pick the minimal discoverer.
	var best *stopCand
	better := func(c stopCand) {
		if best == nil || c.parent < best.parent || (c.parent == best.parent && c.pos < best.pos) {
			cc := c
			best = &cc
		}
	}
	for i := range outs {
		for _, s := range outs[i].stops {
			better(s)
		}
	}
	for _, e := range admit {
		if e.dead {
			better(stopCand{kind: stopDeadlock, parent: e.parent, pos: e.pos, e: e})
		} else if e.term {
			if tv := en.models[e.id].CheckTerminal(); tv != "" {
				better(stopCand{kind: stopTermViol, parent: e.parent, pos: e.pos, e: e})
			}
		}
	}
	if best != nil {
		en.finishStop(best)
		return true
	}

	en.mergeEdges(lo, hi)

	if en.cfg.Progress != nil {
		en.cfg.Progress(ProgressInfo{
			Depth:       int(depth),
			Frontier:    len(en.nodes) - int(newStart),
			States:      len(en.nodes),
			Transitions: en.res.Transitions,
		})
	}
	return false
}

// finishStop finalizes the result for a run-ending event.
func (en *engine) finishStop(s *stopCand) {
	en.fill(en.res)
	switch s.kind {
	case stopViolation:
		path := append(en.pathOf(s.parent), s.rec)
		en.res.Violation = en.render("safety", reasonViolation, path)
	case stopTermViol:
		en.res.Violation = en.render("safety", reasonTerminal, en.pathOf(s.e.id))
	case stopDeadlock:
		en.res.Trap = en.render("deadlock", reasonFixedDeadlock, en.pathOf(s.e.id))
	case stopRootStuck:
		en.res.Trap = en.render("deadlock", reasonFixedDeadlock, nil)
	}
}

// mergeEdges appends the layer's edges, from sources [lo, hi), to the
// packed successor array: a counting sort by source, then a per-source
// deduplication that keeps first occurrences. Each node is expanded by
// one worker in choice order, so the result does not depend on
// scheduling.
func (en *engine) mergeEdges(lo, hi int32) {
	cnt := en.cnt[:0]
	for i := lo; i <= hi; i++ {
		cnt = append(cnt, 0)
	}
	for i := range en.outs {
		for _, ed := range en.outs[i].edges {
			if !ed.to.dropped {
				cnt[ed.from-lo+1]++
			}
		}
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	base := int32(len(en.succ))
	if n := int(base + cnt[len(cnt)-1]); n > cap(en.succ) {
		// Double, so the copies left behind total less than the array.
		en.succ = append(make([]int32, 0, max(n, 2*cap(en.succ))), en.succ...)
	}
	en.succ = en.succ[:base+cnt[len(cnt)-1]]
	for i := range en.outs {
		for _, ed := range en.outs[i].edges {
			if !ed.to.dropped {
				k := &cnt[ed.from-lo]
				en.succ[base+*k] = ed.to.id
				*k++
			}
		}
	}
	// cnt[i] is now the end of source lo+i's run, which starts where the
	// previous source's run ended.
	w, start := base, base
	for i := range hi - lo {
		first := w
		for k := start; k < base+cnt[i]; k++ {
			to := en.succ[k]
			if !slices.Contains(en.succ[first:w], to) {
				en.succ[w] = to
				w++
			}
		}
		start = base + cnt[i]
		en.succOff = append(en.succOff, w)
	}
	en.succ = en.succ[:w]
	en.cnt = cnt
}

// pathOf reconstructs the chosen-discoverer choice chain leading to id.
func (en *engine) pathOf(id int32) []coherence.Choice {
	var rev []coherence.Choice
	for e := en.nodes[id]; e.parent >= 0; e = en.nodes[e.parent] {
		rev = append(rev, e.rec)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func (en *engine) fill(res *Result) {
	res.States = len(en.nodes)
	res.Terminals, res.MaxDepth = 0, 0
	for _, e := range en.nodes {
		if e.term {
			res.Terminals++
		}
		if d := int(e.depth); d > res.MaxDepth {
			res.MaxDepth = d
		}
	}
}

// liveness is the backward-reachability pass over the complete graph:
// any node that cannot reach a terminal is a trap.
func (en *engine) liveness(res *Result) {
	if res.Violation != nil {
		return
	}
	// Invert the packed successor array into a packed predecessor one.
	n := len(en.nodes)
	predOff := make([]int32, n+1)
	for _, to := range en.succ {
		predOff[to+1]++
	}
	for i := 1; i <= n; i++ {
		predOff[i] += predOff[i-1]
	}
	preds := make([]int32, len(en.succ))
	next := slices.Clone(predOff[:n])
	for from := range n {
		for _, to := range en.succ[en.succOff[from]:en.succOff[from+1]] {
			preds[next[to]] = int32(from)
			next[to]++
		}
	}
	live := make([]bool, n)
	var queue []int32
	for id, e := range en.nodes {
		if e.term {
			live[id] = true
			queue = append(queue, int32(id))
		}
	}
	for head := 0; head < len(queue); head++ {
		to := queue[head]
		for _, p := range preds[predOff[to]:predOff[to+1]] {
			if !live[p] {
				live[p] = true
				queue = append(queue, p)
			}
		}
	}
	trap, stuck := int32(-1), int32(-1)
	for id := range en.nodes {
		if live[id] {
			continue
		}
		if trap < 0 {
			trap = int32(id)
		}
		if stuck < 0 && en.succOff[id+1] == en.succOff[id] {
			stuck = int32(id)
		}
	}
	if trap < 0 {
		return
	}
	kind, reason := "livelock", reasonLivelock
	if stuck >= 0 {
		trap = stuck
		kind, reason = "deadlock", reasonLiveDeadlock
	}
	res.Trap = en.render(kind, reason, en.pathOf(trap))
}

// reasonKind selects how render derives the reason string from the
// replayed final state; deriving it during the deterministic replay
// (rather than trusting a racing discoverer's string, which under
// symmetry is rendered in that discoverer's concrete coordinates) keeps
// the report byte-identical at any worker count.
type reasonKind int8

const (
	reasonViolation reasonKind = iota // m.Violation() after the last step
	reasonTerminal                    // m.CheckTerminal() on the final state
	reasonFixedDeadlock
	reasonLivelock
	reasonLiveDeadlock
)

// render replays a violating path with tracing enabled and packages the
// counterexample.
func (en *engine) render(kind string, rk reasonKind, path []coherence.Choice) *Counterexample {
	ce := &Counterexample{Kind: kind}
	m := coherence.NewModel(en.cfg.Model)
	m.SetTrace(func(d string) { ce.Dispatches = append(ce.Dispatches, d) })
	for _, c := range path {
		ce.Steps = append(ce.Steps, m.DescribeChoice(c))
		m.Apply(c)
	}
	m.SetTrace(nil)
	switch rk {
	case reasonViolation:
		ce.Reason = m.Violation()
	case reasonTerminal:
		ce.Reason = m.CheckTerminal()
	case reasonFixedDeadlock:
		ce.Reason = "state has no transitions and is not drained (deadlock)"
	case reasonLivelock:
		ce.Reason = "state can keep transitioning but no terminal (drained) state is reachable"
	case reasonLiveDeadlock:
		ce.Reason = "no transitions remain and the system is not drained"
	}
	ce.FinalState = m.DumpState()
	return ce
}
