package torture

import (
	"runtime"
	"testing"
)

// runPool is the fixed schedule pool of BenchmarkRun and
// TestRunAllocationCeiling: four generated schedules for each of the five
// systems, interleaved as Generate returns them.
func runPool(tb testing.TB) []*Schedule {
	pool := Generate(GenConfig{Seed: 1, Schedules: 4})
	for _, s := range pool {
		if _, err := Run(s); err != nil { // warm-up, and a check that the pool runs
			tb.Fatalf("%s: %v", s.Label, err)
		}
	}
	return pool
}

// BenchmarkRun runs the whole pool once per op: crash-torture throughput
// over all five systems, with allocations per op and the schedules an op
// covers.
func BenchmarkRun(b *testing.B) {
	pool := runPool(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range pool {
			if _, err := Run(s); err != nil {
				b.Fatalf("%s: %v", s.Label, err)
			}
		}
	}
	b.ReportMetric(float64(len(pool)), "schedules/op")
}

// runAllocCeiling bounds the heap bytes one schedule of the pool allocates
// on average. Building every system's cache levels afresh costs ~3.1 MB a
// schedule; with levels recycled across systems and flat oracle snapshots
// a schedule allocates ~0.7 MB.
const runAllocCeiling = 1 << 20

// TestRunAllocationCeiling keeps a torture schedule's cost what it
// simulates rather than what it allocates (DESIGN.md §8).
func TestRunAllocationCeiling(t *testing.T) {
	pool := runPool(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range pool {
		if _, err := Run(s); err != nil {
			t.Fatalf("%s: %v", s.Label, err)
		}
	}
	runtime.ReadMemStats(&after)
	perSchedule := (after.TotalAlloc - before.TotalAlloc) / uint64(len(pool))
	t.Logf("%d B and %d allocations per schedule", perSchedule, (after.Mallocs-before.Mallocs)/uint64(len(pool)))
	if perSchedule > runAllocCeiling {
		t.Errorf("a schedule allocates %d B on average, over the %d B ceiling", perSchedule, runAllocCeiling)
	}
}
