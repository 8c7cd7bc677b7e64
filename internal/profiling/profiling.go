// Package profiling wires the standard Go profilers into the simulator
// commands. Every binary gets the same three flags (-cpuprofile,
// -memprofile, -trace) registered through AddFlags, and a single
// Start/stop pair that owns the file handles, so the commands don't each
// reimplement the boilerplate (or drift in how they do it).
//
// It also owns the collector tuning the simulator wants: once its caches
// are warm the hot loop allocates almost nothing (coherence messages and
// transactions are recycled), but a run still allocates the cache frames
// and directory entries it touches first, against a pointer-rich heap
// (cache arrays, directories, instruction windows) that the default GOGC
// target makes the collector re-scan far too eagerly. TuneGC widens the
// target unless the user set GOGC themselves.
package profiling

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"runtime/trace"
)

// Flags holds the output paths parsed from the command line. Zero-value
// paths mean the corresponding profiler stays off.
type Flags struct {
	CPUProfile string
	MemProfile string
	TracePath  string
}

// AddFlags registers -cpuprofile, -memprofile and -trace on the default
// flag set. Call before flag.Parse.
func AddFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write CPU profile to `file`")
	flag.StringVar(&f.MemProfile, "memprofile", "", "write heap profile to `file` at exit")
	flag.StringVar(&f.TracePath, "trace", "", "write runtime execution trace to `file`")
	return f
}

// Start begins whichever profilers were requested and returns the
// function that stops them and flushes the output files. The returned
// stop is never nil and is safe to call when nothing was enabled; run it
// via defer on every exit path that should produce usable profiles.
func (f *Flags) Start() (stop func(), err error) {
	var cpuFile, traceFile *os.File

	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	if f.TracePath != "" {
		traceFile, err = os.Create(f.TracePath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, fmt.Errorf("trace: %w", err)
		}
	}

	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer mf.Close()
			runtime.GC() // materialize the steady-state live set
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}
	}, nil
}

// TuneGC raises the collector's heap-growth target for the simulator
// commands. Simulation output is a pure function of (config, workload,
// seed), so collector pacing can never change a result — only how much
// wall-clock the collector burns re-scanning the live heap. An
// explicit GOGC in the environment wins. The returned function restores
// the previous target, for callers that share the process (benchmarks).
func TuneGC() (restore func()) {
	if os.Getenv("GOGC") != "" {
		return func() {}
	}
	prev := debug.SetGCPercent(400)
	return func() { debug.SetGCPercent(prev) }
}
