package check

import (
	"fmt"
	"testing"

	"wbsim/internal/coherence"
)

// BenchmarkExplore times one exhaustive closure of the 2-core/1-bank/
// 2-line squash model, the checker's headline geometry, at one and two
// workers. Run it with -benchmem: allocations per closure are the
// checker's GC load. The closure's counters are checked once per run,
// so a faster but wrong checker does not pass for a speed-up.
func BenchmarkExplore(b *testing.B) {
	mcfg := coherence.ModelConfig{Cores: 2, Banks: 1, Lines: 2, OpsPerCore: 2, Mode: coherence.ModeSquash}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				res = Explore(Config{Model: mcfg, Workers: workers})
			}
			if res.States != 18111 || res.Transitions != 85402 || res.MaxDepth != 51 {
				b.Fatalf("closure %d states / %d transitions / depth %d; want 18111 / 85402 / 51",
					res.States, res.Transitions, res.MaxDepth)
			}
			b.ReportMetric(float64(res.States)*float64(b.N)/b.Elapsed().Seconds(), "states/s")
		})
	}
}
