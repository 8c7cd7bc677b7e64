package check

import (
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
//   - Cheap state materialization. Nodes carry deep-cloned models for
//     exactly two live layers (the one being expanded and the one being
//     built), so expanding a node costs one clone per choice instead of
//     a full replay of its path. Counterexample rendering still replays
//     from the root: cached models are chain-concrete by construction
//     (each equals the replay of its recorded choice path), so the
//     replay reproduces them exactly.
//
// Symmetry reduction needs no structure of its own: it only changes the
// dedup key to the state's canonical orbit fingerprint.
type engine struct {
	cfg     Config
	workers int
	sym     bool

	store  *stateStore
	nodes  []*entry
	succs  [][]int32
	models []*coherence.Model // chain-concrete models; non-nil for live layers only

	res        *Result
	droppedAny bool

	// pools holds retired models for CloneInto reuse, one free list per
	// worker so expansion recycles without locking; the barrier (single-
	// threaded) refills them round-robin with the layer's discarded and
	// retired models.
	pools [][]*coherence.Model
	rr    int

	// Layer scratch kept across layers: one output per worker, and the
	// barrier's list of new entries.
	outs []workerOut
	news []*entry
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
	edges       []edgeRec
	stops       []stopCand
	panicked    any
}

// cloneOf clones m, reusing a pooled retired model when one is free.
func (en *engine) cloneOf(wi int, m *coherence.Model) *coherence.Model {
	p := en.pools[wi]
	if n := len(p); n > 0 {
		dst := p[n-1]
		en.pools[wi] = p[:n-1]
		return m.CloneInto(dst)
	}
	return m.Clone()
}

// recycle returns a dead model (nothing references it or its arenas) to
// worker wi's pool.
func (en *engine) recycle(wi int, m *coherence.Model) {
	if m != nil {
		en.pools[wi] = append(en.pools[wi], m)
	}
}

// recycleRR spreads barrier-side retirements across the worker pools.
func (en *engine) recycleRR(m *coherence.Model) {
	if m != nil {
		en.recycle(en.rr, m)
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
	m := en.models[id]
	if m == nil {
		m = en.replay(en.pathOf(id))
	}
	chs := m.Choices()
	if len(chs) == 0 {
		if id == 0 && !en.nodes[0].term {
			w.stops = append(w.stops, stopCand{kind: stopRootStuck, parent: -1, pos: -1})
		}
		return
	}
	for pos, ch := range chs {
		var c *coherence.Model
		if pos == len(chs)-1 {
			// Last choice: consume the parent model instead of cloning.
			// The barrier's rebuild path tolerates a missing parent
			// model by replaying from the root.
			c = m
			en.models[id] = nil
		} else {
			c = en.cloneOf(w.wi, m)
		}
		c.Apply(ch)
		w.transitions++
		if c.Violation() != "" {
			w.stops = append(w.stops, stopCand{kind: stopViolation, parent: id, pos: int32(pos), rec: ch})
			en.recycle(w.wi, c)
			continue
		}
		e, isNew := en.store.insert(en.keyOf(c), id, int32(pos), ch, c)
		if isNew {
			e.term = c.Terminal()
			if !e.term {
				e.dead = c.NumChoices() == 0
			}
		} else {
			// Duplicate child: nothing references c, reuse it.
			en.recycle(w.wi, c)
		}
		w.edges = append(w.edges, edgeRec{id, e})
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
		en.succs = append(en.succs, nil)
	}
	// Materialize chain-concrete models: adopt the first inserter's
	// child only if it came from the chosen discoverer; otherwise
	// rebuild from the (still live) parent model.
	for _, e := range admit {
		mdl := e.model
		if e.mparent != e.parent || e.mpos != e.pos {
			en.recycleRR(mdl) // donated by a non-chosen discoverer
			pm := en.models[e.parent]
			if pm == nil {
				pm = en.replay(en.pathOf(e.parent))
			}
			mdl = en.cloneOf(en.rr, pm)
			mdl.Apply(e.rec)
		}
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

	// Merge edges (deduplicated per source, as before).
	for i := range outs {
		for _, ed := range outs[i].edges {
			if ed.to.dropped {
				continue
			}
			en.addSucc(ed.from, ed.to.id)
		}
	}

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

func (en *engine) addSucc(from, to int32) {
	for _, s := range en.succs[from] {
		if s == to {
			return
		}
	}
	en.succs[from] = append(en.succs[from], to)
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

// replay materializes the state at the end of a choice chain. Cached
// models are chain-concrete, so replay agrees with them exactly.
func (en *engine) replay(path []coherence.Choice) *coherence.Model {
	m := coherence.NewModel(en.cfg.Model)
	for _, c := range path {
		m.Apply(c)
	}
	return m
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
	preds := make([][]int32, len(en.nodes))
	for from, ss := range en.succs {
		for _, to := range ss {
			preds[to] = append(preds[to], int32(from))
		}
	}
	live := make([]bool, len(en.nodes))
	var queue []int32
	for id, e := range en.nodes {
		if e.term {
			live[id] = true
			queue = append(queue, int32(id))
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, p := range preds[n] {
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
		if stuck < 0 && len(en.succs[id]) == 0 {
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
