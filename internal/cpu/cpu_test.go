package cpu

import (
	"testing"
	"testing/quick"
)

// step drives the predictor exactly as the core does: predict (which
// speculatively shifts the history), train on the outcome, and restore
// the history on a misprediction.
func step(p *Predictor, pc int, actual bool) bool {
	h := p.History()
	pred := p.Predict(pc)
	p.Train(pc, h, actual)
	if pred != actual {
		p.Restore(h, actual)
	}
	return pred == actual
}

func TestPredictorLearnsBias(t *testing.T) {
	p := NewPredictor(10)
	pc := 123
	// An always-taken branch must become perfectly predicted.
	for i := 0; i < 20; i++ {
		step(p, pc, true)
	}
	correct := 0
	for i := 0; i < 20; i++ {
		if step(p, pc, true) {
			correct++
		}
	}
	if correct != 20 {
		t.Fatalf("always-taken accuracy %d/20", correct)
	}
}

func TestPredictorLoopPattern(t *testing.T) {
	// A loop branch taken N-1 times then not taken: gshare's history
	// disambiguates the positions, so accuracy should converge high.
	p := NewPredictor(12)
	pc := 7
	correct, total := 0, 0
	for iter := 0; iter < 200; iter++ {
		for i := 0; i < 8; i++ {
			ok := step(p, pc, i != 7)
			if iter > 40 {
				total++
				if ok {
					correct++
				}
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("loop accuracy %.2f < 0.9", acc)
	}
}

func TestPredictorRestore(t *testing.T) {
	p := NewPredictor(8)
	h0 := p.History()
	p.Predict(1)
	p.Predict(2)
	p.Restore(h0, true)
	if p.History() != (h0<<1)|1 {
		t.Fatal("Restore did not rewind history")
	}
}

func TestPredictorDeterministic(t *testing.T) {
	if err := quick.Check(func(pcs []uint16) bool {
		a, b := NewPredictor(10), NewPredictor(10)
		for _, pc := range pcs {
			ha, hb := a.History(), b.History()
			pa, pb := a.Predict(int(pc)), b.Predict(int(pc))
			if pa != pb {
				return false
			}
			a.Train(int(pc), ha, pc%3 == 0)
			b.Train(int(pc), hb, pc%3 == 0)
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func validConfig() Config {
	return Config{
		FetchWidth: 4, IssueWidth: 4, CommitWidth: 4,
		IQSize: 16, ROBSize: 32, LQSize: 10, SQSize: 16, SBSize: 16,
		LDTSize: 32, MispredictPenalty: 7, ALULatency: 1, ForwardLatency: 2,
	}
}

func TestConfigValidate(t *testing.T) {
	good := validConfig()
	good.Validate() // must not panic
	edge := validConfig()
	edge.ForwardLatency, edge.MispredictPenalty = 0, 0 // performLoad clamps the wake-up to 1
	edge.Validate()
	big := validConfig()
	big.LDTSize = 65 // the LDT is a list of live entries: no size cap
	big.Validate()

	bad := []func(*Config){
		func(c *Config) { c.FetchWidth = 0 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.CommitMode = CommitOoOWB; c.Lockdown = true; c.LDTSize = 0 },
		func(c *Config) { c.LDTSize = -1 }, // would panic in NewCore's make
		func(c *Config) { c.CommitMode = CommitOoOWB; c.Lockdown = false },
		func(c *Config) { c.CommitMode = CommitOoOSafe; c.Lockdown = true },
		func(c *Config) { c.CommitMode = CommitOoOUnsafe; c.Lockdown = true },
		func(c *Config) { c.ALULatency = 0 }, // would complete a cycle late
		func(c *Config) { c.ALULatency = -1 },
		func(c *Config) { c.ForwardLatency = -1 },
		func(c *Config) { c.MispredictPenalty = -1 },
	}
	for i, mutate := range bad {
		c := validConfig()
		mutate(&c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d did not panic", i)
				}
			}()
			c.Validate()
		}()
	}
}

func TestCommitModeStrings(t *testing.T) {
	for m, want := range map[CommitMode]string{
		CommitInOrder: "inorder", CommitOoOSafe: "ooo-safe",
		CommitOoOWB: "ooo-wb", CommitOoOUnsafe: "ooo-unsafe",
	} {
		if m.String() != want {
			t.Errorf("%v", m)
		}
	}
}

// counterOracle is the predictor as a plain table of 2-bit counters,
// each initialised to 1 (weakly not taken), which the XOR-stored table
// must reproduce.
type counterOracle struct {
	table   []uint8
	history uint64
	mask    uint64
}

func newCounterOracle(bits int) *counterOracle {
	o := &counterOracle{table: make([]uint8, 1<<bits), mask: 1<<bits - 1}
	for i := range o.table {
		o.table[i] = 1
	}
	return o
}

func (o *counterOracle) Predict(pc int) bool {
	taken := o.table[(uint64(pc)^o.history)&o.mask] >= 2
	o.history = o.history<<1 | b2u(taken)
	return taken
}

func (o *counterOracle) Train(pc int, historyAt uint64, taken bool) {
	idx := (uint64(pc) ^ historyAt) & o.mask
	if c := o.table[idx]; taken && c < 3 {
		o.table[idx] = c + 1
	} else if !taken && c > 0 {
		o.table[idx] = c - 1
	}
}

func (o *counterOracle) Restore(historyAt uint64, taken bool) {
	o.history = historyAt<<1 | b2u(taken)
}

// TestPredictorMatchesCounterOracle drives random Predict, Train and
// Restore sequences, trained out of order as branches resolve, through
// the predictor and the plain-counter oracle, and requires the same
// prediction and history at every step. A small table makes branches
// share counters, and the walks must drive some counter to each end.
func TestPredictorMatchesCounterOracle(t *testing.T) {
	const bits = 4
	saw := [4]bool{}
	for seed := uint64(1); seed <= 50; seed++ {
		r := seed
		next := func(n int) int {
			r = r*6364136223846793005 + 1442695040888963407
			return int(r>>33) % n
		}
		p, o := NewPredictor(bits), newCounterOracle(bits)
		type branch struct {
			pc   int
			hist uint64
		}
		var inFlight []branch
		for step := 0; step < 500; step++ {
			switch op := next(4); {
			case op <= 1 || len(inFlight) == 0:
				pc := next(24)
				h := p.History()
				if got, want := p.Predict(pc), o.Predict(pc); got != want {
					t.Fatalf("seed %d step %d: Predict(%d) = %v, oracle %v", seed, step, pc, got, want)
				}
				inFlight = append(inFlight, branch{pc, h})
			case op == 2:
				i := next(len(inFlight))
				b := inFlight[i]
				inFlight = append(inFlight[:i], inFlight[i+1:]...)
				taken := next(4) != 0 || b.pc%3 == 0 // biased, so counters saturate
				p.Train(b.pc, b.hist, taken)
				o.Train(b.pc, b.hist, taken)
			default: // a squash back to an in-flight branch
				i := next(len(inFlight))
				taken := next(2) == 0
				p.Restore(inFlight[i].hist, taken)
				o.Restore(inFlight[i].hist, taken)
				inFlight = inFlight[:i]
			}
			if p.History() != o.history {
				t.Fatalf("seed %d step %d: history %#x, oracle %#x", seed, step, p.History(), o.history)
			}
			for _, c := range o.table {
				saw[c] = true
			}
		}
	}
	if saw != [4]bool{true, true, true, true} {
		t.Fatalf("counter values seen: %v; the walks must reach all four", saw)
	}
}
