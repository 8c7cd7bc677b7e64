// Package cpu implements the out-of-order core model: fetch along a
// predicted path, register-dependency scheduling, a reorder-buffer ring
// and a collapsible load queue, FIFO store queue and store buffer, TSO
// enforcement (squash-and-re-execute or lockdowns), the Lockdown Table
// (LDT) for out-of-order-committed loads, and the four commit policies
// the paper evaluates.
package cpu

import "fmt"

// CommitMode selects the commit policy.
type CommitMode int

// Commit policies.
const (
	// CommitInOrder retires strictly from the ROB head.
	CommitInOrder CommitMode = iota
	// CommitOoOSafe is Bell-Lipasti safe out-of-order commit: an
	// instruction commits out of order only when all six conditions
	// hold, including condition 6 (consistency): a load cannot commit
	// until every older load has performed.
	CommitOoOSafe
	// CommitOoOWB is the paper's contribution: condition 6 is relaxed
	// for loads. An M-speculative load commits out of order, exporting
	// its lockdown to the LDT; WritersBlock coherence guarantees the
	// reordering is never seen.
	CommitOoOWB
	// CommitOoOUnsafe commits M-speculative loads out of order *without*
	// lockdowns or WritersBlock. It exists to demonstrate that doing so
	// over the base protocol violates TSO (the litmus suite catches it).
	CommitOoOUnsafe
)

// String names the commit mode.
func (m CommitMode) String() string {
	switch m {
	case CommitInOrder:
		return "inorder"
	case CommitOoOSafe:
		return "ooo-safe"
	case CommitOoOWB:
		return "ooo-wb"
	case CommitOoOUnsafe:
		return "ooo-unsafe"
	}
	return fmt.Sprintf("commit(%d)", int(m))
}

// Config sizes the core (Table 6: SLM/NHM/HSW classes share widths and
// differ in structure sizes).
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int

	IQSize  int // scheduler window (dispatched, not yet issued)
	ROBSize int
	LQSize  int
	SQSize  int
	SBSize  int
	LDTSize int

	CommitMode CommitMode

	// Lockdown selects the paper's coherence mode: M-speculative loads
	// are never squashed on invalidations; instead the core withholds
	// acks (lockdowns) and the directory hides the reordering via
	// WritersBlock. Required by CommitOoOWB; optional for CommitInOrder
	// (Figure 9 measures the protocol overhead under in-order commit);
	// forbidden for the squash-based baselines.
	Lockdown bool

	MispredictPenalty int // front-end redirect cycles
	ALULatency        int
	ForwardLatency    int // store-to-load forward latency
}

// Validate panics on inconsistent configurations.
func (c *Config) Validate() {
	if c.FetchWidth <= 0 || c.IssueWidth <= 0 || c.CommitWidth <= 0 {
		panic("cpu: widths must be positive")
	}
	if c.ROBSize <= 0 || c.LQSize <= 0 || c.SQSize <= 0 || c.SBSize <= 0 || c.IQSize <= 0 {
		panic("cpu: structure sizes must be positive")
	}
	// Core events fire at least one cycle after they are scheduled (see
	// coreEvents): a 0-cycle ALU op would complete a cycle late.
	if c.ALULatency < 1 || c.ForwardLatency < 0 || c.MispredictPenalty < 0 {
		panic("cpu: ALU latency must be at least 1, forward latency and mispredict penalty non-negative")
	}
	if c.CommitMode == CommitOoOWB && c.LDTSize <= 0 {
		panic("cpu: ooo-wb commit requires an LDT")
	}
	if c.LDTSize < 0 {
		panic("cpu: LDT size must be non-negative")
	}
	if c.CommitMode == CommitOoOWB && !c.Lockdown {
		panic("cpu: ooo-wb commit requires lockdown coherence")
	}
	if (c.CommitMode == CommitOoOSafe || c.CommitMode == CommitOoOUnsafe) && c.Lockdown {
		panic("cpu: squash-based commit modes use the base protocol")
	}
}
