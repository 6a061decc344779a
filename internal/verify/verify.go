// Package verify provides the executable counterpart of the paper's formal
// consistency argument: an oracle that snapshots the software-visible
// memory image at epoch boundaries and checks that post-crash recovery
// reproduces exactly one of them.
package verify

import (
	"bytes"
	"fmt"
	"slices"

	"thynvm/internal/ctl"
	"thynvm/internal/mem"
)

// zeroBlock is the expected content of a block never written before the
// workload started: physical memory is zero-initialized.
var zeroBlock = make([]byte, mem.BlockSize)

// Snapshot is one captured memory image of the blocks touched by its
// capture instant. A block in the verified footprint that the snapshot does
// not hold was first touched after the capture — its expected content is
// the pre-workload base (zero unless loaded via LoadBase).
type Snapshot struct {
	Label string
	At    mem.Cycle // capture instant (the checkpoint's epoch boundary)

	// CommittedAt is the cycle at which this snapshot's checkpoint became
	// durable (0 = not known to have committed). Set by the harness via
	// SetCommitted once the controller reports the commit drained.
	CommittedAt mem.Cycle

	// Faulted marks a snapshot whose commit was hit by an injected
	// metadata tear: recovering to it is legitimate (the tear may have
	// landed in don't-care bytes) but it cannot serve as the "must not
	// lose" floor.
	Faulted bool

	// The image is flat: blocks is the footprint at capture in address
	// order (the oracle's TouchedBlocks slice of that instant, shared and
	// never written) and data holds block blocks[i] at
	// data[i*BlockSize:], so a capture costs two allocations whatever the
	// footprint.
	blocks []uint64
	data   []byte
}

// block returns the captured content of the snapshot's i-th block.
func (s *Snapshot) block(i int) []byte {
	return s.data[i*mem.BlockSize : (i+1)*mem.BlockSize : (i+1)*mem.BlockSize]
}

// Oracle tracks touched blocks and captured snapshots for one workload run.
type Oracle struct {
	touched map[uint64]struct{}
	// sorted caches TouchedBlocks; fresh lists the blocks recorded since
	// it was built, which the next TouchedBlocks merges in.
	sorted []uint64
	fresh  []uint64
	base   map[uint64][]byte
	snaps  []*Snapshot
}

// New returns an empty oracle.
func New() *Oracle {
	return &Oracle{
		touched: make(map[uint64]struct{}),
		base:    make(map[uint64][]byte),
	}
}

// RecordWrite marks the blocks covered by a write of n bytes at addr as
// part of the verified footprint. Zero-length writes touch nothing.
func (o *Oracle) RecordWrite(addr uint64, n int) {
	if n <= 0 {
		return
	}
	for a := mem.BlockAlign(addr); a < addr+uint64(n); a += mem.BlockSize {
		if _, ok := o.touched[a]; !ok {
			o.touched[a] = struct{}{}
			o.fresh = append(o.fresh, a)
		}
	}
}

// LoadBase records pre-workload content for the blocks covering
// [addr, addr+len(data)): the expected image of those blocks in any
// snapshot captured before they were first written. Mirror every
// LoadHome/Poke preload here; unloaded blocks default to zero.
func (o *Oracle) LoadBase(addr uint64, data []byte) {
	for len(data) > 0 {
		a := mem.BlockAlign(addr)
		b := o.base[a]
		if b == nil {
			b = make([]byte, mem.BlockSize)
			o.base[a] = b
		}
		n := copy(b[addr-a:], data)
		addr += uint64(n)
		data = data[n:]
	}
}

// TouchedBlocks returns the verified footprint in address order. The slice
// is cached until a block not seen before is recorded, and snapshots keep
// it as their block list, so callers must treat it as read-only. A slice
// once returned never changes: recording new blocks builds a new one.
func (o *Oracle) TouchedBlocks() []uint64 {
	if len(o.fresh) == 0 {
		return o.sorted
	}
	merged := make([]uint64, 0, len(o.sorted)+len(o.fresh))
	merged = append(append(merged, o.sorted...), o.fresh...)
	slices.Sort(merged)
	o.sorted, o.fresh = merged, o.fresh[:0]
	return merged
}

// baseBlock returns block a's pre-workload content.
func (o *Oracle) baseBlock(a uint64) []byte {
	if b, ok := o.base[a]; ok {
		return b
	}
	return zeroBlock
}

// expected returns the content block a must hold for the image to equal
// snapshot s: the captured image when present, else the pre-workload base
// (the block was first written after s was captured, so at s's instant it
// still held its initial content).
func (o *Oracle) expected(s *Snapshot, a uint64) []byte {
	if i, ok := slices.BinarySearch(s.blocks, a); ok {
		return s.block(i)
	}
	return o.baseBlock(a)
}

// Capture snapshots the controller's software-visible image of all touched
// blocks; call it at the instant a checkpoint begins (post cache flush).
// It returns the snapshot index.
func (o *Oracle) Capture(c ctl.Controller, label string, at mem.Cycle) int {
	blocks := o.TouchedBlocks()
	s := &Snapshot{Label: label, At: at, blocks: blocks, data: make([]byte, len(blocks)*mem.BlockSize)}
	for i, a := range blocks {
		c.PeekBlock(a, s.block(i))
	}
	o.snaps = append(o.snaps, s)
	return len(o.snaps) - 1
}

// Snapshots returns the captured snapshots in capture order.
func (o *Oracle) Snapshots() []*Snapshot { return o.snaps }

// SetCommitted records that snapshot idx's checkpoint became durable at
// cycle at.
func (o *Oracle) SetCommitted(idx int, at mem.Cycle) {
	if idx >= 0 && idx < len(o.snaps) {
		o.snaps[idx].CommittedAt = at
	}
}

// MarkFaulted flags snapshot idx as possibly damaged by an injected
// metadata tear (see Snapshot.Faulted).
func (o *Oracle) MarkFaulted(idx int) {
	if idx >= 0 && idx < len(o.snaps) {
		o.snaps[idx].Faulted = true
	}
}

// MarkAllFaulted flags every snapshot: media faults landed in the durable
// image, so no commit — however cleanly it drained — is a guaranteed floor
// anymore. Recovery falling back past (or refusing) damaged generations is
// then legitimate; the recovered image must still exactly match *some*
// snapshot, which is what rules out silent corruption.
func (o *Oracle) MarkAllFaulted() {
	for _, s := range o.snaps {
		s.Faulted = true
	}
}

// Solidify clears a snapshot's Faulted flag and stamps CommittedAt: after a
// recovery verifiably reproduced it, its content is consolidated into the
// durable home region and it becomes a sound floor for later crashes.
func (o *Oracle) Solidify(idx int, at mem.Cycle) {
	if idx >= 0 && idx < len(o.snaps) {
		o.snaps[idx].Faulted = false
		if o.snaps[idx].CommittedAt == 0 || o.snaps[idx].CommittedAt > at {
			o.snaps[idx].CommittedAt = at
		}
	}
}

// PruneAfter drops every snapshot after idx — the post-crash timeline
// diverged, so snapshots the recovered run never reached are stale. Pass
// -1 to drop all.
func (o *Oracle) PruneAfter(idx int) {
	if idx < -1 {
		idx = -1
	}
	if idx+1 < len(o.snaps) {
		o.snaps = o.snaps[:idx+1]
	}
}

// matchAll reports whether the controller's current visible image equals
// snapshot s over the full touched footprint. buf is a scratch block.
func (o *Oracle) matchAll(c ctl.Controller, s *Snapshot, blocks []uint64, buf []byte) bool {
	for _, a := range blocks {
		c.PeekBlock(a, buf)
		if !bytes.Equal(buf, o.expected(s, a)) {
			return false
		}
	}
	return true
}

// Match compares the controller's current visible image against every
// snapshot (newest first) and returns the index and label of the first
// match. ok is false if no snapshot matches. The comparison covers the
// full touched footprint: a block first written after a snapshot's capture
// must have reverted to its pre-workload content for that snapshot to
// match (the footprint-soundness fix — such blocks used to be skipped,
// hiding leaked late writes).
func (o *Oracle) Match(c ctl.Controller) (idx int, label string, ok bool) {
	blocks := o.TouchedBlocks()
	buf := make([]byte, mem.BlockSize)
	for i := len(o.snaps) - 1; i >= 0; i-- {
		if o.matchAll(c, o.snaps[i], blocks, buf) {
			return i, o.snaps[i].Label, true
		}
	}
	return -1, "", false
}

// Diff returns a description of how the controller's current image differs
// from snapshot idx (empty when identical), for failure diagnostics. The
// output is deterministic: blocks are visited in address order.
func (o *Oracle) Diff(c ctl.Controller, idx int) []string {
	if idx < 0 || idx >= len(o.snaps) {
		return []string{fmt.Sprintf("verify: no snapshot %d", idx)}
	}
	var out []string
	buf := make([]byte, mem.BlockSize)
	for _, a := range o.TouchedBlocks() {
		want := o.expected(o.snaps[idx], a)
		c.PeekBlock(a, buf)
		if !bytes.Equal(buf, want) {
			out = append(out, fmt.Sprintf("block %#x: got %x... want %x...", a, buf[:4], want[:4]))
		}
	}
	return out
}

// NewestCommittedBefore returns the index of the newest snapshot captured
// at or before cycle at, or -1. A snapshot captured exactly at the crash
// cycle counts: its cache flush completed by then.
func (o *Oracle) NewestCommittedBefore(at mem.Cycle) int {
	best := -1
	for i, s := range o.snaps {
		if s.At <= at {
			best = i
		}
	}
	return best
}

// NewestCleanCommitted returns the index of the newest snapshot whose
// checkpoint durably committed at or before cycle at and was not faulted,
// or -1. This is the consistency floor: a crash at cycle at must never
// recover to anything older.
func (o *Oracle) NewestCleanCommitted(at mem.Cycle) int {
	best := -1
	for i, s := range o.snaps {
		if !s.Faulted && s.CommittedAt > 0 && s.CommittedAt <= at {
			best = i
		}
	}
	return best
}

// Check is the full post-recovery consistency verdict for a crash at cycle
// crashAt. hadCheckpoint is Machine.Recover's report of whether the
// controller found a committed checkpoint. On success it returns the index
// of the snapshot the recovered image reproduces; on violation a non-nil
// error describing it.
//
// The rules: recovery must reproduce some snapshot whose commit could have
// been durable at the crash (committed at or before crashAt, or faulted —
// a torn commit may still decode), and must not land below the floor (the
// newest clean commit at or before crashAt — losing that is data loss).
func (o *Oracle) Check(c ctl.Controller, crashAt mem.Cycle, hadCheckpoint bool) (int, error) {
	floor := o.NewestCleanCommitted(crashAt)
	blocks := o.TouchedBlocks()
	buf := make([]byte, mem.BlockSize)
	if !hadCheckpoint {
		if floor >= 0 {
			return -1, fmt.Errorf("verify: cold start but snapshot %d (%q) committed at cycle %d <= crash %d — committed checkpoint lost",
				floor, o.snaps[floor].Label, o.snaps[floor].CommittedAt, crashAt)
		}
		// Nothing ever committed: the recovered image must be the
		// pre-workload base.
		for _, a := range blocks {
			c.PeekBlock(a, buf)
			if want := o.baseBlock(a); !bytes.Equal(buf, want) {
				return -1, fmt.Errorf("verify: cold start image differs from initial content at block %#x: got %x... want %x...",
					a, buf[:4], want[:4])
			}
		}
		return -1, nil
	}
	lo := floor
	if lo < 0 {
		lo = 0
	}
	checked := 0
	for i := len(o.snaps) - 1; i >= lo; i-- {
		s := o.snaps[i]
		if !s.Faulted && (s.CommittedAt == 0 || s.CommittedAt > crashAt) {
			continue // could not have been durable at the crash
		}
		checked++
		if o.matchAll(c, s, blocks, buf) {
			return i, nil
		}
	}
	if checked == 0 {
		return -1, fmt.Errorf("verify: recovery reported a checkpoint but no snapshot committed at or before crash cycle %d", crashAt)
	}
	newest := o.NewestCommittedBefore(crashAt)
	return -1, fmt.Errorf("verify: recovered image matches no durable snapshot (crash at %d, floor %d, %d candidates); diff vs newest captured (%d): %v",
		crashAt, floor, checked, newest, o.Diff(c, newest))
}
