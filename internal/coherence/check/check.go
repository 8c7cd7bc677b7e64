// Package check is the exhaustive explicit-state explorer over the
// coherence Model (internal/coherence/model.go): a layer-synchronous
// BFS over deduplicated state fingerprints that proves, at small
// configurations, the two properties the chaos campaigns can only
// sample —
//
//   - Safety: no reachable state violates single-writer, read-value
//     coherence, or a table invariant (an Impossible row firing or a
//     structural check panicking is contained and reported, never
//     crashes the explorer).
//   - Liveness: from every reachable state some terminal (fully
//     drained) state remains reachable. States that cannot reach one
//     form a trap — a deadlock when the trap state has no transitions
//     at all, a livelock when it still spins. Stimulus choices are
//     weakly fair by construction (store retries and lockdown lifts
//     are always enabled), so a trap is a genuine protocol hole, not a
//     starved scheduler.
//
// States are materialized by deep-cloning the frontier (one clone per
// transition) rather than replaying choice paths, expansion is split
// across Workers with all cross-layer decisions resolved
// deterministically at layer barriers, and two sound reductions are
// available: Symmetry dedups states up to the model's automorphism
// group, and POR skips the second leg of commuting-delivery diamonds
// while reconstructing the skipped edges, so the explored graph keeps
// the exact state and edge set liveness checking needs. BFS order makes
// the first counterexample found minimal in transition count, and the
// output is byte-identical at any worker count.
package check

import (
	"fmt"
	"strings"

	"wbsim/internal/coherence"
)

// Config bounds one exploration.
type Config struct {
	Model coherence.ModelConfig
	// MaxStates caps exploration (0 = unlimited). A capped run proves
	// nothing about liveness; Result.Exhaustive reports whether the cap
	// was hit.
	MaxStates int
	// Workers splits frontier expansion across goroutines (0 or 1 =
	// serial). Results, including counterexamples, are byte-identical
	// at any worker count.
	Workers int
	// Symmetry dedups states up to the model's automorphism group
	// (simultaneous core/line renamings that preserve the program).
	// Sound for both properties: every orbit member reaches the same
	// canonical successors.
	Symmetry bool
	// POR enables partial-order reduction over commuting message
	// deliveries: the second leg of each delivery diamond is skipped
	// and its edge reconstructed from the sibling's target, preserving
	// the exact reachable state and edge set.
	POR bool
	// Progress, when set, is called once per completed BFS layer.
	Progress func(ProgressInfo)
	// CollectStates retains every admitted state's canonical
	// fingerprint in Result.StateSet (differential testing; expensive).
	CollectStates bool
}

// ProgressInfo is one per-layer progress snapshot.
type ProgressInfo struct {
	Depth         int // completed BFS depth
	Frontier      int // states admitted at this depth
	States        int // total distinct states so far
	Transitions   int // total edges traversed so far
	DeferredEdges int // POR-skipped edges reconstructed so far
}

// Counterexample is a minimized violating run: the choice path from the
// initial state, the table dispatch stream it produces (the same
// "(State, Event)" format the component trace hooks emit), and the full
// final state for diagnosis.
type Counterexample struct {
	Kind       string   // "safety" or "deadlock" or "livelock"
	Reason     string   // what was violated
	Steps      []string // choice descriptions, in order
	Dispatches []string // "<component> (State, Event)" per table firing
	FinalState string   // DumpState of the violating state
}

// String renders the counterexample as the checker's report format.
func (c *Counterexample) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s\n", strings.ToUpper(c.Kind), c.Reason)
	fmt.Fprintf(&sb, "counterexample (%d steps):\n", len(c.Steps))
	for i, s := range c.Steps {
		fmt.Fprintf(&sb, "  %3d. %s\n", i+1, s)
	}
	sb.WriteString("dispatch stream:\n")
	for _, d := range c.Dispatches {
		fmt.Fprintf(&sb, "  %s\n", d)
	}
	sb.WriteString("final state:\n")
	for _, line := range strings.Split(strings.TrimRight(c.FinalState, "\n"), "\n") {
		fmt.Fprintf(&sb, "  %s\n", line)
	}
	return sb.String()
}

// Result summarizes one exploration.
type Result struct {
	States      int  // distinct states reached (canonical orbits under Symmetry)
	Transitions int  // edges traversed (including duplicates and deferred POR edges)
	Terminals   int  // distinct terminal states
	MaxDepth    int  // deepest BFS level reached
	Exhaustive  bool // full state space explored (MaxStates not hit)

	// SymmetryGroup is the automorphism group order used (1 when
	// Symmetry is off or the config admits no renaming).
	SymmetryGroup int
	// DeferredEdges counts POR-skipped diamond edges that were
	// reconstructed instead of executed (included in Transitions).
	DeferredEdges int
	// StateSet holds every admitted state's canonical fingerprint when
	// Config.CollectStates is set, in node-id order.
	StateSet []string `json:"-"`

	// Violation is the first safety violation found (minimal by BFS
	// order); Trap is the liveness violation. At most one is non-nil:
	// exploration stops at the first safety violation, and the liveness
	// pass only runs on a safe, exhaustively explored graph.
	Violation *Counterexample
	Trap      *Counterexample
}

// Passed reports whether both properties held.
func (r *Result) Passed() bool { return r.Violation == nil && r.Trap == nil }

// Explore runs the BFS to completion (or the state cap) and, on a safe
// exhaustive graph, the backward liveness pass.
func Explore(cfg Config) *Result {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	en := &engine{
		cfg:     cfg,
		workers: workers,
		sym:     cfg.Symmetry,
		por:     cfg.POR,
		store:   newStateStore(),
		pools:   make([][]*coherence.Model, workers),
	}
	res := &Result{Exhaustive: true, SymmetryGroup: 1}
	en.res = res

	init := coherence.NewModel(cfg.Model)
	if en.sym {
		res.SymmetryGroup = init.SymmetrySize()
	}
	root := en.store.seed(en.keyOf(init), init)
	root.id, root.depth = 0, 0
	root.term = init.Terminal()
	root.model = nil
	en.store.drain() // the root is admitted here, not at a barrier
	en.nodes = append(en.nodes, root)
	en.succs = append(en.succs, nil)
	en.models = append(en.models, init)
	if cfg.CollectStates {
		fp, _ := init.CanonicalFingerprint()
		if !en.sym {
			res.StateSet = append(res.StateSet, fp)
		} else {
			res.StateSet = append(res.StateSet, string(root.fp))
		}
	}

	layerLo := 0
	for depth := int32(0); ; depth++ {
		layerHi := len(en.nodes)
		if layerLo == layerHi {
			break
		}
		if en.runLayer(int32(layerLo), int32(layerHi), depth) {
			return res
		}
		for i := layerLo; i < layerHi; i++ {
			// Only two layers of models stay live; retired ones feed the
			// CloneInto pools.
			en.recycleRR(en.models[i])
			en.models[i] = nil
		}
		if cfg.MaxStates > 0 && (en.droppedAny || (len(en.nodes) >= cfg.MaxStates && len(en.nodes) > layerHi)) {
			res.Exhaustive = false
			break
		}
		layerLo = layerHi
	}
	en.fill(res)
	if res.Exhaustive {
		en.liveness(res)
	}
	return res
}
