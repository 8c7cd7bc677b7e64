package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	// A non-positive parallelism resolves to DefaultParallel().
	for _, parallel := range []int{-1, 0, 1, 2, 8, 64} {
		n := 37
		out := make([]int, n)
		err := ForEach(context.Background(), parallel, n, func(_ context.Context, i int) error {
			out[i] = i + 1
			return nil
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("parallel=%d: slot %d = %d", parallel, i, v)
			}
		}
	}
}

func TestForEachBoundsParallelism(t *testing.T) {
	var cur, peak atomic.Int64
	err := ForEach(context.Background(), 3, 24, func(_ context.Context, i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent jobs, want <= 3", p)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Several jobs fail; the reported error must be the lowest-index one,
	// matching what a sequential loop would have surfaced.
	err := ForEach(context.Background(), 8, 16, func(_ context.Context, i int) error {
		if i%3 == 2 { // 2, 5, 8, ...
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 2 failed" {
		t.Fatalf("err = %v, want job 2's error", err)
	}
}

func TestForEachCancelsOutstandingJobs(t *testing.T) {
	var started atomic.Int64
	boom := errors.New("boom")
	err := ForEach(context.Background(), 1, 100, func(_ context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// With one worker, the failure of job 0 must prevent all others.
	if s := started.Load(); s != 1 {
		t.Fatalf("%d jobs started after first error, want 1", s)
	}
}

func TestForEachRespectsParentContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var started atomic.Int64
	err := ForEach(ctx, 4, 50, func(_ context.Context, i int) error {
		started.Add(1)
		return nil
	})
	if err != nil {
		t.Fatalf("cancelled parent is not an error from ForEach: %v", err)
	}
	if s := started.Load(); s != 0 {
		t.Fatalf("%d jobs started under a cancelled parent, want 0", s)
	}
}

func TestMemoSingleFlight(t *testing.T) {
	m := NewMemo[int]()
	var computed atomic.Int64
	var wg sync.WaitGroup
	const callers = 16
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do("k", func() (int, error) {
				computed.Add(1)
				time.Sleep(5 * time.Millisecond)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if c := computed.Load(); c != 1 {
		t.Fatalf("computed %d times, want 1", c)
	}
	jobs, hits := m.Stats()
	if jobs != 1 || hits != callers-1 {
		t.Fatalf("stats = %d jobs / %d hits, want 1 / %d", jobs, hits, callers-1)
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	m := NewMemo[string]()
	for i := 0; i < 3; i++ {
		for _, k := range []string{"a", "b"} {
			v, err := m.Do(k, func() (string, error) { return "v:" + k, nil })
			if err != nil || v != "v:"+k {
				t.Fatalf("Do(%q) = %q, %v", k, v, err)
			}
		}
	}
	jobs, hits := m.Stats()
	if jobs != 2 || hits != 4 {
		t.Fatalf("stats = %d jobs / %d hits, want 2 / 4", jobs, hits)
	}
}

func TestMemoRecomputesErrors(t *testing.T) {
	m := NewMemo[int]()
	boom := errors.New("boom")
	var computed atomic.Int64
	for i := 0; i < 3; i++ {
		_, err := m.Do("k", func() (int, error) {
			computed.Add(1)
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if c := computed.Load(); c != 3 {
		t.Fatalf("failed computation ran %d times, want 3 (errors are never cached)", c)
	}
}
