package verify

import (
	"bytes"
	"slices"
	"testing"

	"thynvm/internal/core"
	"thynvm/internal/mem"
)

func testCtrl() *core.Controller {
	cfg := core.DefaultConfig()
	cfg.PhysBytes = 1 << 20
	cfg.BTTEntries = 256
	cfg.PTTEntries = 64
	cfg.EpochLen = mem.FromNs(50_000)
	return core.MustNew(cfg)
}

func blockOf(v byte) []byte {
	b := make([]byte, mem.BlockSize)
	for i := range b {
		b[i] = v
	}
	return b
}

func TestRecordWriteCoversBlocks(t *testing.T) {
	o := New()
	o.RecordWrite(60, 10) // crosses a block boundary
	blocks := o.TouchedBlocks()
	if len(blocks) != 2 || blocks[0] != 0 || blocks[1] != 64 {
		t.Errorf("touched = %v, want [0 64]", blocks)
	}
}

func TestCaptureAndMatch(t *testing.T) {
	c := testCtrl()
	o := New()
	now := c.WriteBlock(0, 0, blockOf(1))
	o.RecordWrite(0, mem.BlockSize)
	id1 := o.Capture(c, "epoch1", now)
	now = c.WriteBlock(now, 0, blockOf(2))
	id2 := o.Capture(c, "epoch2", now)
	if id1 != 0 || id2 != 1 {
		t.Fatalf("ids %d,%d", id1, id2)
	}
	// Current state matches epoch2 (newest first).
	idx, label, ok := o.Match(c)
	if !ok || idx != 1 || label != "epoch2" {
		t.Errorf("match = %d %q %v", idx, label, ok)
	}
}

func TestMatchFailsOnForeignState(t *testing.T) {
	c := testCtrl()
	o := New()
	c.WriteBlock(0, 0, blockOf(1))
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "a", 0)
	c.WriteBlock(0, 0, blockOf(99))
	if _, _, ok := o.Match(c); ok {
		t.Error("unsnapshotted state matched")
	}
	if diffs := o.Diff(c, 0); len(diffs) == 0 {
		t.Error("Diff reported no differences")
	}
}

func TestNewestCommittedBefore(t *testing.T) {
	o := New()
	c := testCtrl()
	o.Capture(c, "a", 100)
	o.Capture(c, "b", 200)
	o.Capture(c, "c", 300)
	cases := []struct {
		at   mem.Cycle
		want int
	}{{50, -1}, {100, 0}, {250, 1}, {1000, 2}}
	for _, tc := range cases {
		if got := o.NewestCommittedBefore(tc.at); got != tc.want {
			t.Errorf("NewestCommittedBefore(%d) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

func TestDiffBounds(t *testing.T) {
	o := New()
	if d := o.Diff(testCtrl(), 5); len(d) != 1 {
		t.Error("out-of-range Diff should report one diagnostic")
	}
}

// End-to-end: recovery after a crash matches exactly the snapshot of the
// newest committed epoch (here: the only one).
func TestOracleEndToEndWithRecovery(t *testing.T) {
	c := testCtrl()
	o := New()
	now := mem.Cycle(0)
	for i := 0; i < 32; i++ {
		addr := uint64(i) * mem.BlockSize
		now = c.WriteBlock(now, addr, blockOf(byte(i+1)))
		o.RecordWrite(addr, mem.BlockSize)
	}
	o.Capture(c, "boundary", now)
	resume := c.BeginCheckpoint(now, nil)
	now = c.DrainCheckpoint(resume)
	// Post-checkpoint writes that must be rolled back.
	now = c.WriteBlock(now, 0, blockOf(200))
	c.Crash(now)
	if _, _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	idx, label, ok := o.Match(c)
	if !ok || label != "boundary" {
		t.Fatalf("recovered state did not match boundary snapshot (idx=%d ok=%v): %v",
			idx, ok, o.Diff(c, 0))
	}
}

// Regression (footprint-soundness hole): a block first written AFTER a
// snapshot's capture must be checked against that snapshot too — at the
// snapshot's instant it held its pre-workload (zero) content, so a stale
// non-zero value leaking through recovery is a violation Match must see.
func TestMatchChecksLateTouchedBlocks(t *testing.T) {
	c := testCtrl()
	o := New()
	now := c.WriteBlock(0, 0, blockOf(1))
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "early", now)
	// Touch a new block only after the capture.
	late := uint64(4 * mem.BlockSize)
	c.WriteBlock(now, late, blockOf(7))
	o.RecordWrite(late, mem.BlockSize)
	// Current image: block 0 = 1 (matches "early"), late block = 7
	// (nonzero). Old oracle skipped the late block and claimed a match.
	if idx, label, ok := o.Match(c); ok {
		t.Fatalf("late-touched block leaked but Match reported %d %q", idx, label)
	}
	if diffs := o.Diff(c, 0); len(diffs) != 1 {
		t.Fatalf("Diff = %v, want exactly the late block", diffs)
	}
}

// Regression: Diff with a missing image entry used to index a nil slice.
func TestDiffLateTouchedBlockNoPanic(t *testing.T) {
	c := testCtrl()
	o := New()
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "a", 0)
	o.RecordWrite(64, mem.BlockSize)
	c.WriteBlock(0, 64, blockOf(9))
	diffs := o.Diff(c, 0) // must not panic
	if len(diffs) != 1 {
		t.Fatalf("diffs = %v", diffs)
	}
}

func TestZeroLengthWriteTouchesNothing(t *testing.T) {
	o := New()
	o.RecordWrite(128, 0)
	o.RecordWrite(128, -4)
	if got := o.TouchedBlocks(); len(got) != 0 {
		t.Errorf("zero-length write touched %v", got)
	}
}

func TestRecordWriteExactBlockSpans(t *testing.T) {
	o := New()
	o.RecordWrite(mem.BlockSize, mem.BlockSize) // exactly one aligned block
	o.RecordWrite(3*mem.BlockSize-1, 1)         // last byte of a block
	o.RecordWrite(4*mem.BlockSize-1, 2)         // spans the boundary by one byte
	want := []uint64{mem.BlockSize, 2 * mem.BlockSize, 3 * mem.BlockSize, 4 * mem.BlockSize}
	got := o.TouchedBlocks()
	if len(got) != len(want) {
		t.Fatalf("touched = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("touched = %v, want %v", got, want)
		}
	}
}

func TestLoadBaseExpectedContent(t *testing.T) {
	c := testCtrl()
	o := New()
	init := blockOf(5)
	c.LoadHome(0, init)
	o.LoadBase(0, init)
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "pristine", 0)
	// Late-touched second block: expected content at "pristine" is zero.
	o.RecordWrite(64, mem.BlockSize)
	if idx, _, ok := o.Match(c); !ok || idx != 0 {
		t.Fatalf("pristine image should match (idx=%d ok=%v): %v", idx, ok, o.Diff(c, 0))
	}
}

func TestNewestCommittedBeforeTieAtCrashCycle(t *testing.T) {
	o := New()
	c := testCtrl()
	o.Capture(c, "a", 100)
	o.Capture(c, "b", 100) // two snapshots at the same cycle
	if got := o.NewestCommittedBefore(100); got != 1 {
		t.Errorf("tie at crash cycle: got %d, want newest (1)", got)
	}
	if got := o.NewestCommittedBefore(99); got != -1 {
		t.Errorf("pre-tie: got %d, want -1", got)
	}
}

func TestNewestCleanCommitted(t *testing.T) {
	o := New()
	c := testCtrl()
	o.Capture(c, "a", 100)
	o.Capture(c, "b", 200)
	o.Capture(c, "c", 300)
	o.SetCommitted(0, 150)
	o.SetCommitted(1, 250)
	o.MarkFaulted(1)
	// Snapshot 2 never committed.
	if got := o.NewestCleanCommitted(400); got != 0 {
		t.Errorf("faulted snapshot used as floor: got %d, want 0", got)
	}
	o.Solidify(1, 260)
	if got := o.NewestCleanCommitted(400); got != 1 {
		t.Errorf("solidified snapshot not a floor: got %d, want 1", got)
	}
	if got := o.NewestCleanCommitted(100); got != -1 {
		t.Errorf("commit-time boundary: got %d, want -1", got)
	}
}

func TestPruneAfter(t *testing.T) {
	o := New()
	c := testCtrl()
	o.Capture(c, "a", 1)
	o.Capture(c, "b", 2)
	o.Capture(c, "c", 3)
	o.PruneAfter(0)
	if n := len(o.Snapshots()); n != 1 {
		t.Fatalf("snapshots after PruneAfter(0): %d", n)
	}
	o.PruneAfter(-1)
	if n := len(o.Snapshots()); n != 0 {
		t.Fatalf("snapshots after PruneAfter(-1): %d", n)
	}
}

// Check: cold start with a durably committed snapshot is data loss.
func TestCheckColdStartLosesCommit(t *testing.T) {
	c := testCtrl()
	o := New()
	now := c.WriteBlock(0, 0, blockOf(1))
	o.RecordWrite(0, mem.BlockSize)
	o.Capture(c, "a", now)
	o.SetCommitted(0, now+10)
	if _, err := o.Check(c, now+100, false); err == nil {
		t.Fatal("cold start despite committed snapshot not flagged")
	}
	// But a cold start before anything committed is fine if the image is
	// the pre-workload base.
	c2 := testCtrl()
	o2 := New()
	o2.RecordWrite(0, mem.BlockSize)
	o2.Capture(c2, "uncommitted", 50)
	if _, err := o2.Check(c2, 60, false); err != nil {
		t.Fatalf("clean cold start flagged: %v", err)
	}
	// Cold start with leaked writes is a violation.
	c2.WriteBlock(0, 0, blockOf(3))
	if _, err := o2.Check(c2, 60, false); err == nil {
		t.Fatal("cold start with dirty image not flagged")
	}
}

// Check end-to-end against a real controller: crash after a drained
// checkpoint must land exactly on it.
func TestCheckEndToEnd(t *testing.T) {
	c := testCtrl()
	o := New()
	now := mem.Cycle(0)
	for i := 0; i < 16; i++ {
		addr := uint64(i) * mem.BlockSize
		now = c.WriteBlock(now, addr, blockOf(byte(i+1)))
		o.RecordWrite(addr, mem.BlockSize)
	}
	o.Capture(c, "boundary", now)
	resume := c.BeginCheckpoint(now, nil)
	now = c.DrainCheckpoint(resume)
	o.SetCommitted(0, now)
	now = c.WriteBlock(now, 0, blockOf(200))
	crashAt := now
	c.Crash(crashAt)
	if _, _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	idx, err := o.Check(c, crashAt, true)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("Check matched snapshot %d, want 0", idx)
	}
}

// TestCaptureAllocations pins the flat snapshot layout: a capture costs the
// snapshot and its data slab, whatever the footprint.
func TestCaptureAllocations(t *testing.T) {
	for _, blocks := range []int{1, 64, 4096} {
		c := testCtrl()
		o := New()
		for i := 0; i < blocks; i++ {
			o.RecordWrite(uint64(i)*2*mem.BlockSize, mem.BlockSize)
		}
		allocs := testing.AllocsPerRun(50, func() {
			o.Capture(c, "ckpt", 0)
			o.PruneAfter(-1) // keep the snapshot list from growing
		})
		if allocs > 2 {
			t.Errorf("%d-block footprint: Capture made %.1f allocations, want at most 2", blocks, allocs)
		}
	}
}

// TestLateTouchedBlockExpectsBase checks that a block first touched after a
// snapshot's capture — here one with loaded, non-zero base content, lying
// between blocks the snapshot holds — is expected to hold its base content
// for that snapshot, not the content it was later written with.
func TestLateTouchedBlockExpectsBase(t *testing.T) {
	c := testCtrl()
	o := New()
	late := uint64(2 * mem.BlockSize)
	c.LoadHome(late, blockOf(3))
	o.LoadBase(late, blockOf(3))
	now := c.WriteBlock(0, 0, blockOf(1))
	now = c.WriteBlock(now, 4*mem.BlockSize, blockOf(2))
	o.RecordWrite(0, mem.BlockSize)
	o.RecordWrite(4*mem.BlockSize, mem.BlockSize)
	o.Capture(c, "early", now)

	now = c.WriteBlock(now, late, blockOf(8))
	o.RecordWrite(late, mem.BlockSize)
	if got := o.expected(o.Snapshots()[0], late); !bytes.Equal(got, blockOf(3)) {
		t.Fatalf("expected(late) = %x..., want the base %x...", got[:4], blockOf(3)[:4])
	}
	if idx, label, ok := o.Match(c); ok {
		t.Fatalf("late block holds its new content but Match reported %d %q", idx, label)
	}
	c.WriteBlock(now, late, blockOf(3))
	if idx, _, ok := o.Match(c); !ok || idx != 0 {
		t.Fatalf("late block back at its base content: Match = %d, %v; diff %v", idx, ok, o.Diff(c, 0))
	}
}

// TestTouchedBlocksCache checks when the cached footprint is rebuilt: not
// when a block already in it is touched again, only when a new block is
// recorded — and then as a new slice, leaving the one handed out before
// (and kept by earlier snapshots) as it was.
func TestTouchedBlocksCache(t *testing.T) {
	o := New()
	o.RecordWrite(4*mem.BlockSize, mem.BlockSize)
	o.RecordWrite(0, mem.BlockSize)
	first := o.TouchedBlocks()
	o.RecordWrite(10, 4) // inside block 0 again
	again := o.TouchedBlocks()
	if len(again) != 2 || &again[0] != &first[0] {
		t.Fatalf("re-touching a known block rebuilt the footprint: %v -> %v", first, again)
	}
	o.RecordWrite(2*mem.BlockSize, 1)
	grown := o.TouchedBlocks()
	want := []uint64{0, 2 * mem.BlockSize, 4 * mem.BlockSize}
	if !slices.Equal(grown, want) {
		t.Fatalf("footprint after a new block = %v, want %v", grown, want)
	}
	if &grown[0] == &first[0] {
		t.Fatal("a new block reused the slice handed out before")
	}
	if !slices.Equal(first, []uint64{0, 4 * mem.BlockSize}) {
		t.Fatalf("earlier footprint changed to %v", first)
	}
}

// BenchmarkOracleCapture measures one checkpoint capture over a 1024-block
// footprint on the ThyNVM controller.
func BenchmarkOracleCapture(b *testing.B) {
	c := testCtrl()
	o := New()
	var now mem.Cycle
	for i := uint64(0); i < 1024; i++ {
		now = c.WriteBlock(now, i*mem.BlockSize, blockOf(byte(i)))
		o.RecordWrite(i*mem.BlockSize, mem.BlockSize)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Capture(c, "ckpt", now)
		o.PruneAfter(-1)
	}
}
