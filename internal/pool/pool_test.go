package pool

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestRunCanonicalOrder(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Run(20, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 20 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: got[%d]=%d want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunEmpty(t *testing.T) {
	got, err := Run(0, 4, func(i int) (int, error) { t.Fatal("job ran"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestRunLowestError checks the deterministic-error contract: when several
// jobs fail, the reported error is that of the lowest-indexed failure, for
// every worker count.
func TestRunLowestError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		_, err := Run(50, workers, func(i int) (int, error) {
			if i == 7 || i == 31 {
				return 0, fmt.Errorf("cell %d: %w", i, sentinel)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err=%v", workers, err)
		}
		if !strings.Contains(err.Error(), "job 7:") {
			t.Errorf("workers=%d: error %q is not the lowest-indexed failure", workers, err)
		}
	}
}

func TestRunStopsClaimingAfterError(t *testing.T) {
	var ran atomic.Int64
	_, err := Run(10_000, 2, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n == 10_000 {
		t.Error("all jobs ran despite an early failure")
	}
}

func TestRunPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if p := recover(); p == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
				} else if s, ok := p.(string); !ok || s != "kaboom" {
					t.Errorf("workers=%d: recovered %v", workers, p)
				}
			}()
			Run(8, workers, func(i int) (int, error) {
				if i == 3 {
					panic("kaboom")
				}
				return i, nil
			})
		}()
	}
}

// TestRunConcurrent exercises actual concurrency under the race detector:
// each job touches only its own cell.
func TestRunConcurrent(t *testing.T) {
	sums := make([]uint64, 128)
	_, err := Run(len(sums), 16, func(i int) (struct{}, error) {
		for j := 0; j < 1000; j++ {
			sums[i]++
		}
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sums {
		if s != 1000 {
			t.Errorf("sums[%d]=%d", i, s)
		}
	}
}

// TestFreeListBounded checks the free list's contract: values come back
// only under their own key, at most limit are kept per key, and a value
// handed out is gone from the list.
func TestFreeListBounded(t *testing.T) {
	f := NewFreeList[string, int](2)
	if _, ok := f.Get("a"); ok {
		t.Fatal("Get on an empty list succeeded")
	}
	f.Put("a", 1)
	f.Put("a", 2)
	f.Put("a", 3) // over the limit: dropped
	f.Put("b", 9)
	for _, want := range []int{2, 1} {
		if v, ok := f.Get("a"); !ok || v != want {
			t.Fatalf("Get(a) = %d, %v; want %d, true", v, ok, want)
		}
	}
	if v, ok := f.Get("a"); ok {
		t.Fatalf("Get(a) = %d after the list was emptied; the value over the limit was kept", v)
	}
	if v, ok := f.Get("b"); !ok || v != 9 {
		t.Fatalf("Get(b) = %d, %v; want 9, true", v, ok)
	}
}
