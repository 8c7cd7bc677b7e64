package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path"
	"runtime/pprof"
	"strconv"
	"strings"
)

// The layer split by profile: the CPU profiler samples every thread,
// including the collector's, and each sample is charged to one layer —
//
//   - gc when any frame of its stack is the collector (background
//     marking, sweeping, scavenging, mark assists, write barriers);
//   - alloc when the stack runs through the allocator;
//   - otherwise the layer of the innermost frame in this repository, so
//     a map lookup or a copy made by the core pipeline counts as cpu;
//   - other when no frame is in this repository (scheduler, syscalls).
//
// The result is each layer's share of all samples, in percent. The
// stacks are read from the profile by `go tool pprof`, so a traced run
// needs the Go toolchain on PATH, as run.py has it.
var layerByPackage = map[string]string{
	"wbsim/internal/cpu":             "cpu",
	"wbsim/internal/isa":             "cpu",
	"wbsim/internal/coherence":       "coherence",
	"wbsim/internal/coherence/table": "coherence",
	"wbsim/internal/cache":           "coherence",
	"wbsim/internal/mem":             "coherence",
	"wbsim/internal/coherence/check": "checker",
	"wbsim/internal/network":         "mesh",
	"wbsim/internal/core":            "kernel",
	"wbsim/internal/sim":             "kernel",
	"wbsim/internal/faults":          "kernel",
	"wbsim/internal/workload":        "kernel",
	"wbsim/internal/experiments":     "engine",
	"wbsim/internal/runner":          "engine",
	"wbsim/internal/stats":           "engine",
}

// layers lists every layer a sample can be charged to.
var layers = []string{"cpu", "coherence", "mesh", "kernel", "checker", "engine", "gc", "alloc", "other"}

type frame struct{ name, file string }

// layerOf charges one stack (innermost frame first) to a layer.
func layerOf(stack []frame) string {
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f.name, "runtime.gc"),
			f.name == "runtime.bgsweep", f.name == "runtime.bgscavenge", f.name == "runtime.wbBufFlush":
			return "gc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.name, "runtime.mallocgc") {
			return "alloc"
		}
	}
	for _, f := range stack {
		l, ok := layerByPackage[funcPackage(f.name)]
		if !ok {
			continue
		}
		// The model checker's explorable model lives in the coherence
		// package beside the Bank and PCU it drives (model*.go).
		if l == "coherence" && strings.HasPrefix(path.Base(f.file), "model") {
			return "checker"
		}
		return l
	}
	return "other"
}

// funcPackage returns the import path of a profiled function name such
// as "wbsim/internal/cpu.(*Core).commit".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/') + 1
	if dot := strings.IndexByte(name[slash:], '.'); dot >= 0 {
		return name[:slash+dot]
	}
	return name
}

// profile is a CPU profile in progress, written to a temporary file.
type profile struct{ f *os.File }

func startProfile() (*profile, error) {
	f, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return &profile{f}, nil
}

// stop ends the profile and returns each layer's share of its samples.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	defer os.Remove(p.f.Name())
	if err := p.f.Close(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	stacks, err := readTraces(p.f.Name())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range stacks {
		counts[layerOf(s.frames)] += s.count
		total += s.count
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = 100 * float64(counts[l]) / float64(total)
	}
	return shares, nil
}

type stack struct {
	frames []frame // innermost first
	count  int64
}

// readTraces returns the sampled stacks of a profile file, as the Go
// toolchain's pprof prints them.
func readTraces(file string) ([]stack, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-lines", "-symbolize=none", "-sample_index=samples", file)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(string(out))
}

// parseTraces reads the output of pprof -traces -lines with sample counts:
// a header, then stacks, each closed by a dashed line. A stack's first
// line starts with its sample count; every line is one frame, innermost
// first, as the function's name, its file:line and, for an inlined call,
// "(inline)".
func parseTraces(out string) ([]stack, error) {
	var (
		stacks []stack
		cur    *stack
		header = true
	)
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			header, cur = false, nil
			continue
		}
		f := strings.Fields(line)
		if header || len(f) == 0 {
			continue
		}
		if cur == nil {
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof traces: stack starts without a sample count: %q", line)
			}
			stacks = append(stacks, stack{count: n})
			cur = &stacks[len(stacks)-1]
			f = f[1:]
		}
		fr := frame{name: f[0]}
		if len(f) > 1 {
			fr.file = f[1]
			if colon := strings.LastIndexByte(fr.file, ':'); colon >= 0 {
				fr.file = fr.file[:colon]
			}
		}
		cur.frames = append(cur.frames, fr)
	}
	if header {
		return nil, errors.New("pprof traces: no stacks in the output")
	}
	return stacks, nil
}
