// Package core assembles the full simulated machine — cores, private
// cache units, LLC banks with directory slices, and the mesh — and runs
// it to completion. It is the top-level entry point the examples, tools,
// and benchmarks use (re-exported by the root wbsim package).
package core

import (
	"fmt"

	"wbsim/internal/coherence"
	"wbsim/internal/cpu"
	"wbsim/internal/faults"
	"wbsim/internal/network"
	"wbsim/internal/sim"
)

// Class names a core aggressiveness class from Table 6.
type Class string

// The three core classes the paper evaluates.
const (
	SLM Class = "SLM" // Silvermont-class
	NHM Class = "NHM" // Nehalem-class
	HSW Class = "HSW" // Haswell-class
)

// Classes lists the evaluated classes in paper order.
var Classes = []Class{SLM, NHM, HSW}

// CoreConfig returns the Table 6 core configuration for a class.
func CoreConfig(class Class) cpu.Config {
	c := cpu.Config{
		FetchWidth:        4,
		IssueWidth:        4,
		CommitWidth:       4,
		LDTSize:           32,
		MispredictPenalty: 7,
		ALULatency:        1,
		ForwardLatency:    2,
		CommitMode:        cpu.CommitInOrder,
	}
	switch class {
	case SLM:
		c.IQSize, c.ROBSize, c.LQSize, c.SQSize, c.SBSize = 16, 32, 10, 16, 16
	case NHM:
		c.IQSize, c.ROBSize, c.LQSize, c.SQSize, c.SBSize = 32, 128, 48, 36, 36
	case HSW:
		c.IQSize, c.ROBSize, c.LQSize, c.SQSize, c.SBSize = 60, 192, 72, 42, 42
	default:
		panic(fmt.Sprintf("core: unknown class %q", class))
	}
	return c
}

// Variant names one commit-policy × coherence-protocol pairing. The
// full set is derived from the protocol registry (see variants.go and
// coherence.Protocols); the constants below name the pairings referenced
// directly by code and docs.
type Variant string

// Named variants. Descriptions live on the derived VariantSpecs
// (registry protocol Desc × commit policy), rendered by VariantHelp.
const (
	// InOrderBase: in-order commit over the base directory protocol.
	// Figure 10 baseline.
	InOrderBase Variant = "inorder-base"
	// InOrderWB: in-order commit over WritersBlock coherence. Figures
	// 8/9 measure its overhead.
	InOrderWB Variant = "inorder-wb"
	// OoOBase: Bell-Lipasti safe out-of-order commit over the base
	// protocol (consistency condition enforced).
	OoOBase Variant = "ooo-base"
	// OoOWB: the paper's contribution — out-of-order commit with the
	// consistency condition relaxed by lockdowns + WritersBlock.
	OoOWB Variant = "ooo-wb"
	// InOrderTardis: in-order commit over timestamp coherence.
	InOrderTardis Variant = "inorder-tardis"
	// OoOTardis: safe out-of-order commit over timestamp coherence
	// (lease expiry drives the same revalidation seam invalidations do).
	OoOTardis Variant = "ooo-tardis"
	// OoOUnsafe: out-of-order commit of M-speculative loads over the
	// base protocol; violates TSO and exists for the litmus demo.
	OoOUnsafe Variant = "ooo-unsafe"
)

// Variants lists the paper's evaluated variants in evaluation order.
// SoundVariants/AllVariants (variants.go) list the full derived matrix.
var Variants = []Variant{InOrderBase, InOrderWB, OoOBase, OoOWB}

// Config describes a whole machine.
type Config struct {
	Cores   int
	Class   Class
	Variant Variant

	// CoreOverride, when non-nil, replaces the class-derived core
	// configuration (the Variant is still applied on top).
	CoreOverride *cpu.Config

	Mem coherence.Params
	Net network.Config

	Seed      uint64
	JitterMax int // network jitter for litmus interleaving exploration

	// MaxCycles bounds the run; exceeding it is reported as a hang
	// SimError (the watchdog usually trips far earlier).
	MaxCycles sim.Cycle

	// Faults, when non-nil, injects the plan's timing adversity and
	// resource pressure into the built machine (chaos campaigns).
	Faults *faults.Plan

	// Watchdog configures the progress detector replacing the bare
	// MaxCycles check; the zero value selects generous defaults.
	Watchdog faults.WatchdogConfig

	// CycleAccurate disables the idle skip in Step, which credits an
	// idle core's tick instead of executing it, so every core ticks in
	// every cycle. Simulated outcomes are identical either way — the
	// skip only elides provably inert ticks — so the flag exists as an
	// escape hatch for instrumentation that samples the machine
	// mid-flight, and for the determinism gates that prove the
	// equivalence.
	CycleAccurate bool
}

// DefaultConfig returns the paper's 16-core machine for a class/variant.
func DefaultConfig(class Class, variant Variant) Config {
	return Config{
		Cores:     16,
		Class:     class,
		Variant:   variant,
		Mem:       coherence.DefaultParams(),
		Net:       network.DefaultConfig(16),
		Seed:      1,
		MaxCycles: 200_000_000,
	}
}

// SmallConfig returns a downsized machine (tiny caches, small LLC) that
// exercises evictions and contention quickly; used by tests and litmus.
func SmallConfig(cores int, variant Variant) Config {
	cfg := DefaultConfig(SLM, variant)
	cfg.Cores = cores
	cfg.Net = network.DefaultConfig(cores)
	cfg.Mem.LLCLines = 256
	cfg.Mem.L2Lines = 64
	cfg.Mem.L1Lines = 16
	cfg.Mem.EvictionBuf = 4
	cfg.MaxCycles = 50_000_000
	return cfg
}
