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
