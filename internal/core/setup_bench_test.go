package core_test

import (
	"testing"

	"wbsim/internal/core"
	"wbsim/internal/profiling"
	"wbsim/internal/workload"
)

// BenchmarkNewSystem measures building the simulator-speed machine
// before it runs: the 16-core SLM machine with out-of-order commit over
// WritersBlock, fft built for it and its memory initialised, at the
// collector target the simulator commands use. It is the set-up the
// sim headline pays once per simulation; B/op and allocs/op are what
// construction allocates.
func BenchmarkNewSystem(b *testing.B) {
	defer profiling.TuneGC()()
	w, ok := workload.Get("fft")
	if !ok {
		b.Fatal("fft is not registered")
	}
	cfg := core.DefaultConfig(core.SLM, core.OoOWB)
	cfg.Seed = 1
	cfg.JitterMax = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := core.NewSystem(cfg, w.Build(cfg.Cores, 1))
		if w.Init != nil {
			w.Init(sys.Memory, cfg.Cores, 1)
		}
	}
}
