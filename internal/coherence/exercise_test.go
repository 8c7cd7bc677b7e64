package coherence

import (
	"strings"
	"testing"
)

// TestExerciseProtocol pins the directed stimulator's health: every
// scenario completes without a protocol panic, and the rows the
// scenarios were written for — the races the random litmus matrix
// cannot aim at — actually fire. If a refactor makes a scenario stop
// reaching its row, this fails by name.
func TestExerciseProtocol(t *testing.T) {
	agg := ExerciseProtocol()
	out := agg.String()
	t.Logf("\n%s", out)

	// The rows that motivated each scripted scenario.
	targets := []string{
		// Stale-Put races against the directory.
		"(NoEntry, PutOwned)",
		"(I, PutOwned)",
		"(S, PutOwned)",
		"(Fetch, PutOwned)",
		"(BusyEv, PutOwned)",
		"(BusyEv, InvAck)",
		// WritersBlock entered through a directory eviction.
		"(BusyEv, Nack)",
		"(BusyEv, DelayedAck)",
		"(WBEv, Read)",
		"(WBEv, Write)",
		"(WBEv, PutOwned)",
		"(WBEv, Nack)",
		"(WBEv, InvAck)",
		"(WBEv, DelayedAck)",
		"(WBW, Nack)",
		"(WBW, Write)",
		// Core-machine races: stale hints, writeback-buffer forwards,
		// and the SoS-bypass RdWr state.
		"(Idle, Hint)",
		"(Rd, Hint)",
		"(Rd, FwdGetS)",
		"(RdWr, Tearoff)",
		"(RdWr, Data)",
		"(RdWr, DataExcl)",
		"(RdWr, Ack)",
		"(RdWr, Inv)",
		"(RdWr, Hint)",
		"(RdWr, FwdGetS)",
		"(RdWr, FwdGetX)",
		"(RdWr, PutAck)",
		// The tardis directory's lease lifecycle: a write and an
		// eviction parked on a lease, and what arrives during the park.
		"(TsS, Read)",
		"(TsS, Write)",
		"(TsS, PutOwned)",
		"(TsWaitW, Read)",
		"(TsWaitW, Write)",
		"(TsWaitW, PutOwned)",
		"(TsWaitW, LeaseExpired)",
		"(TsWaitEv, Read)",
		"(TsWaitEv, Write)",
		"(TsWaitEv, PutOwned)",
		"(TsWaitEv, LeaseExpired)",
	}
	for _, pair := range targets {
		if strings.Contains(out, "silent: "+pair) {
			t.Errorf("stimulator no longer reaches %s", pair)
		}
	}

	// Determinism: the scenarios take no randomness, so a second run
	// must produce the identical report.
	if again := ExerciseProtocol().String(); again != out {
		t.Errorf("stimulator is not deterministic:\n--- first\n%s--- second\n%s", out, again)
	}
}
