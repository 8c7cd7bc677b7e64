package cpu_test

import (
	"fmt"
	"testing"

	"wbsim/internal/core"
	"wbsim/internal/cpu"
	"wbsim/internal/workload"
)

// TestCommitSkipIsExact runs every registered variant over a few
// workloads with each skipped commit scan checked against the full scan:
// the full scan must commit nothing and charge the LDT-full stalls the
// skip charged. A one-entry LDT makes out-of-order commit stall on a
// full LDT, so skips that charge stalls are checked too.
func TestCommitSkipIsExact(t *testing.T) {
	type run struct {
		v       core.Variant
		ldtSize int // 0: the class default
	}
	var runs []run
	for _, v := range core.AllVariants() {
		runs = append(runs, run{v: v})
	}
	runs = append(runs, run{v: core.OoOWB, ldtSize: 1})
	var tinyLDTStalls uint64

	for _, name := range []string{"fft", "radix", "canneal"} {
		w, ok := workload.Get(name)
		if !ok {
			t.Fatalf("workload %q is not registered", name)
		}
		for _, r := range runs {
			t.Run(fmt.Sprintf("%s/%s/ldt%d", name, r.v, r.ldtSize), func(t *testing.T) {
				cfg := core.SmallConfig(4, r.v)
				if r.ldtSize > 0 {
					cc := core.CoreConfig(cfg.Class)
					cc.LDTSize = r.ldtSize
					cfg.CoreOverride = &cc
				}
				sys := core.NewSystem(cfg, w.Build(cfg.Cores, 1))
				if w.Init != nil {
					w.Init(sys.Memory, cfg.Cores, 1)
				}
				for _, c := range sys.Cores {
					cpu.CheckCommitSkip(c)
				}
				if _, err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				checked := 0
				for _, c := range sys.Cores {
					if r.ldtSize > 0 {
						tinyLDTStalls += c.Stats.LDTFullStalls
					}
					n, bad := cpu.CommitSkipChecks(c)
					if bad != 0 {
						t.Errorf("core %d: %d of %d skipped commit scans disagree with the full scan", c.ID, bad, n)
					}
					checked += n
				}
				if checked == 0 {
					t.Error("no commit scan was skipped — test is vacuous")
				}
			})
		}
	}
	if tinyLDTStalls == 0 {
		t.Error("the 1-entry LDT never filled — skips that charge LDT-full stalls went unchecked")
	}
}
