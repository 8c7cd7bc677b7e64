package check

import (
	"strings"
	"testing"

	"wbsim/internal/coherence"
)

// counters is an exploration's exact outcome. The explorer is
// deterministic and independent of the host, so a drift in any counter
// is a change to the model or the tables, never noise.
type counters struct{ States, Transitions, Terminals, MaxDepth int }

// wantCounters fails the test when res's counters differ from want.
func wantCounters(t *testing.T, label string, res *Result, want counters) {
	t.Helper()
	if got := (counters{res.States, res.Transitions, res.Terminals, res.MaxDepth}); got != want {
		t.Errorf("%s: counters %+v, want %+v", label, got, want)
	}
}

// TestExhaustiveSingleCore closes the smallest interesting space — one
// core forced through private-cache conflict evictions across two lines
// — and must find no safety violation and no trap.
func TestExhaustiveSingleCore(t *testing.T) {
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 1, Banks: 1, Lines: 2, OpsPerCore: 3,
		Mode: coherence.ModeSquash,
	}})
	if !res.Exhaustive {
		t.Fatal("single-core space did not close")
	}
	if !res.Passed() {
		t.Fatalf("violation=%v trap=%v", res.Violation, res.Trap)
	}
	wantCounters(t, "1c/2l/3ops", res, counters{1024, 3129, 2, 36})
}

// TestExhaustiveTwoCoreSquash is the acceptance configuration: two cores
// contending on one line, full network reordering, exhaustively explored
// with zero violations.
func TestExhaustiveTwoCoreSquash(t *testing.T) {
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2,
		Mode: coherence.ModeSquash,
	}})
	if !res.Exhaustive {
		t.Fatal("two-core one-line space did not close")
	}
	if !res.Passed() {
		t.Fatalf("violation=%v trap=%v", res.Violation, res.Trap)
	}
	wantCounters(t, "2c/1l squash", res, counters{881, 3042, 4, 42})
}

// TestExhaustiveTwoCoreWritersBlock runs the same contention under
// lockdown mode with a one-lockdown budget, which pulls the whole
// Nack/DelayedAck/WritersBlock row family into the explored space.
// 43k states, about 1 s; skipped under -short.
func TestExhaustiveTwoCoreWritersBlock(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive WritersBlock exploration (~1s)")
	}
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2,
		Lockdowns: 1, Mode: coherence.ModeLockdown,
	}})
	if !res.Exhaustive {
		t.Fatal("WritersBlock space did not close")
	}
	if !res.Passed() {
		t.Fatalf("violation=%v trap=%v", res.Violation, res.Trap)
	}
	wantCounters(t, "2c/1l lockdown", res, counters{43159, 229766, 16, 70})
}

// TestDeterministicExploration: two explorations of the same config must
// agree on every counter and match the pinned ones — the checker is
// itself a simulation-path component and replays must be exact.
func TestDeterministicExploration(t *testing.T) {
	cfg := Config{Model: coherence.ModelConfig{
		Cores: 1, Banks: 1, Lines: 2, OpsPerCore: 2,
		Mode: coherence.ModeSquash,
	}}
	a, b := Explore(cfg), Explore(cfg)
	if a.States != b.States || a.Transitions != b.Transitions ||
		a.Terminals != b.Terminals || a.MaxDepth != b.MaxDepth {
		t.Fatalf("non-deterministic exploration: %+v vs %+v", a, b)
	}
	wantCounters(t, "1c/2l/2ops", a, counters{90, 212, 1, 21})
}

// TestPreFixDeadlockTrap is the root-cause regression: on the pre-fix
// directory tables, the eviction PutE that overtakes its own
// transaction's Unblock is acknowledged stale, stranding the writeback
// buffer forever. The checker must find the trap, and its minimized
// trace must show the exact dispatch that was wrong — the PutOwned
// landing in BusyE — and the stranded buffer in the final state.
func TestPreFixDeadlockTrap(t *testing.T) {
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 1, Banks: 1, Lines: 2, OpsPerCore: 2,
		Mode: coherence.ModeSquash, PreFixPutRace: true,
	}})
	if res.Trap == nil {
		t.Fatal("pre-fix tables not flagged")
	}
	if res.Trap.Kind != "deadlock" {
		t.Errorf("trap kind = %q, want deadlock", res.Trap.Kind)
	}
	if res.Violation != nil {
		t.Errorf("unexpected safety violation: %v", res.Violation)
	}
	joinedSteps := strings.Join(res.Trap.Steps, "\n")
	if !strings.Contains(joinedSteps, "stale") {
		t.Errorf("trace does not show the stale PutAck:\n%s", joinedSteps)
	}
	dispatches := strings.Join(res.Trap.Dispatches, "\n")
	if !strings.Contains(dispatches, "bank0 (BusyE, PutOwned)") {
		t.Errorf("dispatch stream does not show the racing Put:\n%s", dispatches)
	}
	if !strings.Contains(res.Trap.FinalState, "staleAck=true") {
		t.Errorf("final state does not show the stranded writeback buffer:\n%s",
			res.Trap.FinalState)
	}
	// BFS order makes the counterexample minimal; the known-shortest
	// run to the trap is ~21 steps. A blow-up here means minimization
	// regressed.
	if len(res.Trap.Steps) > 30 {
		t.Errorf("counterexample not minimal: %d steps", len(res.Trap.Steps))
	}
	wantCounters(t, "1c/2l pre-fix", res, counters{132, 321, 1, 21})
}

// TestCorruptRowSafetyViolation deletes protocol correctness one row at
// a time: with (Exclusive, Write) corrupted to grant from the LLC
// without forwarding to the owner, the checker must report the SWMR
// violation with a trace ending in the corrupt dispatch.
func TestCorruptRowSafetyViolation(t *testing.T) {
	res := Explore(Config{Model: coherence.ModelConfig{
		Cores: 2, Banks: 1, Lines: 1, OpsPerCore: 2,
		Mode: coherence.ModeSquash, CorruptWriteRace: true,
	}})
	if res.Violation == nil {
		t.Fatal("corrupted table row not flagged")
	}
	if res.Violation.Kind != "safety" {
		t.Errorf("violation kind = %q, want safety", res.Violation.Kind)
	}
	if !strings.Contains(res.Violation.Reason, "SWMR") {
		t.Errorf("reason = %q, want an SWMR violation", res.Violation.Reason)
	}
	dispatches := strings.Join(res.Violation.Dispatches, "\n")
	if !strings.Contains(dispatches, "bank0 (E, Write)") {
		t.Errorf("dispatch stream does not show the corrupt row firing:\n%s", dispatches)
	}
}

// TestCappedRunReportsInexhaustive: a state cap must be reported as
// such, and must never fabricate a trap (liveness needs the full graph).
func TestCappedRunReportsInexhaustive(t *testing.T) {
	res := Explore(Config{
		Model: coherence.ModelConfig{
			Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2,
			Mode: coherence.ModeSquash,
		},
		MaxStates: 500,
	})
	if res.Exhaustive {
		t.Fatal("500-state cap cannot close an 18k-state space")
	}
	if !res.Passed() {
		t.Fatalf("capped run fabricated a failure: violation=%v trap=%v",
			res.Violation, res.Trap)
	}
	if res.States > 501 {
		t.Errorf("cap not honoured: %d states", res.States)
	}
}

// TestCounterexampleFormat pins the report format: kind, numbered steps,
// the dispatch stream in the trace-hook "(State, Event)" shape, and the
// indented final state.
func TestCounterexampleFormat(t *testing.T) {
	ce := &Counterexample{
		Kind:   "deadlock",
		Reason: "state has no transitions and is not drained (deadlock)",
		Steps:  []string{"core0 load L0x40", "fire core0 send GetS L0x40 core0->bank0"},
		Dispatches: []string{
			"bank0 (NoEntry, Read)",
			"bank0 (BusyE, PutOwned)",
		},
		FinalState: "core0 pcu 0: mshrs=0 wbBuf=1\n",
	}
	want := `DEADLOCK: state has no transitions and is not drained (deadlock)
counterexample (2 steps):
    1. core0 load L0x40
    2. fire core0 send GetS L0x40 core0->bank0
dispatch stream:
  bank0 (NoEntry, Read)
  bank0 (BusyE, PutOwned)
final state:
  core0 pcu 0: mshrs=0 wbBuf=1
`
	if got := ce.String(); got != want {
		t.Errorf("format drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
