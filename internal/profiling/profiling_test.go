package profiling

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

func TestStartStopWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		CPUProfile: filepath.Join(dir, "cpu.out"),
		MemProfile: filepath.Join(dir, "mem.out"),
		TracePath:  filepath.Join(dir, "trace.out"),
	}
	stop, err := f.Start()
	if err != nil {
		t.Fatal(err)
	}
	// Some trivial work so the profiles have something to record.
	s := 0
	for i := 0; i < 1_000_000; i++ {
		s += i
	}
	_ = s
	stop()

	for _, p := range []string{f.CPUProfile, f.MemProfile, f.TracePath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty profile", p)
		}
	}
}

func TestStartNothingEnabled(t *testing.T) {
	stop, err := (&Flags{}).Start()
	if err != nil {
		t.Fatal(err)
	}
	stop() // must be a safe no-op
}

func TestStartBadPath(t *testing.T) {
	f := &Flags{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")}
	if _, err := f.Start(); err == nil {
		t.Fatal("expected error for uncreatable profile path")
	}
}

// gcPercent reads the collector target without changing it.
func gcPercent() int {
	p := debug.SetGCPercent(-1)
	debug.SetGCPercent(p)
	return p
}

// TestTuneGCRestores checks that TuneGC raises the collector target to
// 400 unless GOGC is set, and that its restore function puts back the
// target it replaced.
func TestTuneGCRestores(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(150))

	t.Setenv("GOGC", "")
	restore := TuneGC()
	if got := gcPercent(); got != 400 {
		t.Errorf("after TuneGC the target is %d, want 400", got)
	}
	restore()
	if got := gcPercent(); got != 150 {
		t.Errorf("after restore the target is %d, want 150", got)
	}

	t.Setenv("GOGC", "150")
	restore = TuneGC()
	if got := gcPercent(); got != 150 {
		t.Errorf("with GOGC set, TuneGC changed the target to %d", got)
	}
	restore()
	if got := gcPercent(); got != 150 {
		t.Errorf("with GOGC set, restore changed the target to %d", got)
	}
}
