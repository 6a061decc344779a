// Package pool fans independent, deterministic jobs across a fixed number
// of worker goroutines while keeping the results in canonical submission
// order.
//
// The experiment sweeps (workload x system x size grids in package thynvm)
// are embarrassingly parallel: every cell builds its own Machine, its own
// workload generator and — when telemetry is on — its own obs.Collector, so
// cells share no mutable state. The pool exploits that: it only decides
// *when* each cell runs, never *what* it computes, so output assembled from
// the returned slice is byte-identical to a sequential run regardless of
// worker count or scheduling.
package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Run executes jobs 0..n-1 on up to workers goroutines and returns their
// results indexed by job number. workers <= 0 selects
// runtime.GOMAXPROCS(0); workers == 1 runs every job in-line on the
// calling goroutine (no concurrency at all), which is the reference
// sequential order.
//
// Error handling is deterministic: if any jobs fail, the error of the
// lowest-indexed failing job is returned, independent of scheduling. Once
// a failure is observed, workers stop claiming new jobs (already-started
// jobs finish). A panicking job is re-panicked on the calling goroutine so
// deferred cleanup along the caller's stack still runs.
func Run[T any](n, workers int, job func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	results := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			r, err := job(i)
			if err != nil {
				return nil, fmt.Errorf("job %d: %w", i, err)
			}
			results[i] = r
		}
		return results, nil
	}

	var (
		next    atomic.Int64 // next job index to claim
		failed  atomic.Bool  // stop claiming once any job errors
		errs    = make([]error, n)
		panicMu sync.Mutex
		panicV  any
		hasPan  bool
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil {
							panicMu.Lock()
							if !hasPan {
								hasPan, panicV = true, p
							}
							panicMu.Unlock()
							failed.Store(true)
						}
					}()
					r, err := job(i)
					if err != nil {
						errs[i] = err
						failed.Store(true)
						return
					}
					results[i] = r
				}()
			}
		}()
	}
	wg.Wait()
	if hasPan {
		panic(panicV)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
	}
	return results, nil
}

// FreeList is a bounded stash of reusable values keyed by K, safe for use
// from concurrent goroutines. It exists for objects that are expensive to
// build and that their owner can reset to a freshly built state more
// cheaply (the cache package's level slabs): the sim packages themselves
// may not hold locks, so the synchronization lives here.
//
// Unlike sync.Pool, a FreeList is not drained by garbage collection, and
// it keeps at most limit values per key; Put drops anything beyond that,
// so the memory it pins is bounded by limit times the largest value per
// key in use.
type FreeList[K comparable, V any] struct {
	mu    sync.Mutex
	limit int
	spare map[K][]V
}

// NewFreeList returns an empty free list keeping at most limit values per
// key.
func NewFreeList[K comparable, V any](limit int) *FreeList[K, V] {
	return &FreeList[K, V]{limit: limit, spare: make(map[K][]V)}
}

// Get removes and returns a spare value for key; ok is false when there is
// none.
func (f *FreeList[K, V]) Get(key K) (v V, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.spare[key]
	if len(s) == 0 {
		return v, false
	}
	v = s[len(s)-1]
	var zero V
	s[len(s)-1] = zero // do not pin a value handed out
	f.spare[key] = s[:len(s)-1]
	return v, true
}

// Put offers v for reuse under key; it is dropped when key already holds
// limit values. The caller must not use v afterwards.
func (f *FreeList[K, V]) Put(key K, v V) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s := f.spare[key]; len(s) < f.limit {
		f.spare[key] = append(s, v)
	}
}
