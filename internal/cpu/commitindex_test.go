package cpu_test

import (
	"fmt"
	"testing"

	"wbsim/internal/core"
	"wbsim/internal/cpu"
	"wbsim/internal/workload"
)

// TestIndexedCommitMatchesScan runs every registered variant over a few
// workloads with each commit call checked against a walk of the window
// from the head, as the scanning commit made it: every completed
// instruction the walk reaches must be visited by the indexed commit
// with the same prefix flags, and both must stop at the same
// instruction. A one-entry LDT makes out-of-order commit stall on a full
// LDT, so visits that charge LDT-full stalls are checked too.
func TestIndexedCommitMatchesScan(t *testing.T) {
	type run struct {
		v       core.Variant
		ldtSize int // 0: the class default
	}
	var runs []run
	for _, v := range core.AllVariants() {
		runs = append(runs, run{v: v})
	}
	runs = append(runs, run{v: core.OoOWB, ldtSize: 1})
	var ooo, tinyLDTStalls uint64

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
					cpu.CheckCommitScan(c)
				}
				if _, err := sys.Run(); err != nil {
					t.Fatal(err)
				}
				checked := 0
				for _, c := range sys.Cores {
					ooo += c.Stats.CommittedOoO
					if r.ldtSize > 0 {
						tinyLDTStalls += c.Stats.LDTFullStalls
					}
					n, bad := cpu.CommitScanChecks(c)
					if bad != 0 {
						t.Errorf("core %d: %d decisions of %d visits disagree with the scan", c.ID, bad, n)
					}
					checked += n
				}
				if checked == 0 {
					t.Error("commit visited no completed instruction — test is vacuous")
				}
			})
		}
	}
	if ooo == 0 {
		t.Error("no instruction committed out of order — the indexed visits went unchecked")
	}
	if tinyLDTStalls == 0 {
		t.Error("the 1-entry LDT never filled — visits that charge LDT-full stalls went unchecked")
	}
}
