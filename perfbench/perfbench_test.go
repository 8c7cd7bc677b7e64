package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

// TestMetricsMatchBenchmarkJSON keeps the program's metric lists and the
// repository's BENCHMARK.json in step: a run must print exactly the
// metrics the file declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not in the program", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	for _, l := range layers {
		found := false
		for _, m := range perLayer {
			found = found || m.name == l+"_pct"
		}
		if !found {
			t.Errorf("layer %q has no %s_pct metric", l, l)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"wbsim/internal/cpu.(*Core).commit", "cpu/commit.go"}}, "cpu"},
		{[]frame{{"runtime.mapaccess1_fast64", ""}, {"wbsim/internal/cpu.(*Core).fetch", "cpu/core.go"}}, "cpu"},
		{[]frame{{"runtime.memclrNoHeapPointers", ""}, {"runtime.mallocgc", ""}, {"wbsim/internal/cpu.NewCore", ""}}, "alloc"},
		{[]frame{{"runtime.scanobject", ""}, {"runtime.gcDrain", ""}, {"runtime.gcBgMarkWorker", ""}}, "gc"},
		{[]frame{{"wbsim/internal/coherence.(*Model).CloneInto", "coherence/model_clone.go"}}, "checker"},
		{[]frame{{"wbsim/internal/coherence.(*Bank).Tick", "coherence/dir.go"}}, "coherence"},
		{[]frame{{"wbsim/internal/coherence/check.(*engine).runLayer", "check/engine.go"}}, "checker"},
		{[]frame{{"wbsim/internal/network.(*Mesh).Tick", "network/network.go"}}, "mesh"},
		{[]frame{{"runtime.futex", ""}, {"runtime.findRunnable", ""}}, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: samples
Duration: 1.10s, Total samples = 7
-----------+-------------------------------------------------------
         3   wbsim/internal/network.(*msgHeap).less /src/internal/network/network.go:616 (inline)
             wbsim/internal/network.(*Mesh).Tick /src/internal/network/network.go:401
-----------+-------------------------------------------------------
         4   runtime.futex /go/src/runtime/sys_linux_amd64.s:557
-----------+-------------------------------------------------------
`
	stacks, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	want := []stack{
		{[]frame{
			{"wbsim/internal/network.(*msgHeap).less", "/src/internal/network/network.go"},
			{"wbsim/internal/network.(*Mesh).Tick", "/src/internal/network/network.go"},
		}, 3},
		{[]frame{{"runtime.futex", "/go/src/runtime/sys_linux_amd64.s"}}, 4},
	}
	if !reflect.DeepEqual(stacks, want) {
		t.Errorf("parseTraces = %+v, want %+v", stacks, want)
	}
	if _, err := parseTraces("File: perfbench\n"); err == nil {
		t.Error("parseTraces accepted output without stacks")
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfile profiles a busy loop through go tool pprof: the shares
// must sum to 100%, and the loop's frame must be on the stacks.
func TestProfile(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	stacks, err := readTraces(p.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var spinning int64
	for _, s := range stacks {
		for _, f := range s.frames {
			if f.name == "wbsim/perfbench.spin" || f.name == "main.spin" {
				spinning += s.count
				break
			}
		}
	}
	if spinning < 10 {
		t.Errorf("%d samples in spin, want most of ~30", spinning)
	}
	shares, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("shares sum to %.2f%%, want 100%%", sum)
	}
}
