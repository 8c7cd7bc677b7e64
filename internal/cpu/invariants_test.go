package cpu_test

import (
	"strings"
	"testing"

	"wbsim/internal/core"
	"wbsim/internal/cpu"
	"wbsim/internal/faults"
	"wbsim/internal/isa"
	"wbsim/internal/mem"
)

// TestRunChecksCoreInvariants: System.Run checks every core once the run
// finishes, so an LDT entry that outlives its run fails the run with an
// error naming the core, where it used to pass unnoticed.
func TestRunChecksCoreInvariants(t *testing.T) {
	prog := isa.NewBuilder("alu-only").MovImm(1, 7).AddI(2, 1, 1).Halt().Program()
	for _, leak := range []bool{false, true} {
		sys := core.NewSystem(core.SmallConfig(2, core.OoOWB), []*isa.Program{prog, prog})
		if leak {
			cpu.LeakLDTEntry(sys.Cores[1], mem.LineOf(0x4000))
		}
		_, err := sys.Run()
		if !leak {
			if err != nil {
				t.Fatalf("clean run: %v", err)
			}
			continue
		}
		se, ok := faults.AsSimError(err)
		if !ok || se.Kind != faults.KindPanic || !strings.Contains(se.Msg, "cpu 1") || !strings.Contains(se.Msg, "ldt=1") {
			t.Fatalf("leaked LDT entry: Run returned %v, want a panic error naming cpu 1 and ldt=1", err)
		}
	}
}
