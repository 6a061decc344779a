// Package cache implements the CPU cache hierarchy of the simulated system:
// set-associative write-back caches with LRU replacement, byte-accurate
// contents and dirty-block tracking.
//
// The hierarchy matters to ThyNVM for two reasons. First, it filters the
// memory traffic that reaches the memory controller, which is where the
// paper's consistency schemes live. Second, its dirty blocks are volatile
// state that the checkpointing phase must flush to the memory system
// (the paper's hardware-assisted "data flush", §4.4); blocks are cleaned
// but not invalidated, mirroring Intel CLWB semantics.
//
// Geometry defaults follow Table 2 of the paper: L1 32 KB 8-way (4-cycle
// hit), L2 256 KB 8-way (12-cycle hit), L3 2 MB 16-way (28-cycle hit),
// all with 64 B blocks.
package cache

import (
	"fmt"
	"math/bits"

	"thynvm/internal/mem"
	"thynvm/internal/obs"
	"thynvm/internal/pool"
)

// Backend is the memory system beneath the cache hierarchy. Addresses are
// physical and block-aligned; buffers are exactly one block long.
// ReadBlock returns the completion cycle of the read; WriteBlock returns
// the cycle at which the issuer may proceed (writes may be posted).
type Backend interface {
	ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle
	WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle
}

// LevelSpec describes one cache level.
type LevelSpec struct {
	Name   string
	SizeB  int       // total capacity in bytes
	Ways   int       // associativity
	HitLat mem.Cycle // access latency on hit (also charged on the miss path)
}

// L1Spec returns the paper's L1: private 32 KB, 8-way, 4-cycle hit.
func L1Spec() LevelSpec { return LevelSpec{Name: "L1", SizeB: 32 << 10, Ways: 8, HitLat: 4} }

// L2Spec returns the paper's L2: private 256 KB, 8-way, 12-cycle hit.
func L2Spec() LevelSpec { return LevelSpec{Name: "L2", SizeB: 256 << 10, Ways: 8, HitLat: 12} }

// L3Spec returns the paper's L3: 2 MB per core, 16-way, 28-cycle hit.
func L3Spec() LevelSpec { return LevelSpec{Name: "L3", SizeB: 2 << 20, Ways: 16, HitLat: 28} }

// LevelStats counts events at one cache level.
type LevelStats struct {
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty evictions pushed to the level below
	Flushed    uint64 // dirty blocks cleaned by FlushDirty
}

// level is one set-associative cache level stored as flat slabs rather
// than one object per line: line i (i = set*ways + way) keeps its tag,
// validity stamp and LRU stamp in pointer-free parallel arrays and its
// bytes at data[i*BlockSize:]. Building a level therefore costs a handful
// of allocations whatever its capacity.
//
// Validity is generation-stamped: line i is valid iff gens[i] == gen, so
// invalidating the whole level bumps gen instead of touching every line.
// Dirtiness lives in a bitmap indexed like the lines, so walking its set
// bits visits dirty lines in set/way order while skipping clean words
// 64 lines at a time. A dirty bit implies a valid line.
type level struct {
	spec  LevelSpec
	nsets uint64
	ways  int
	gen   uint32
	tags  []uint64
	gens  []uint32
	used  []uint64 // LRU stamps: Hierarchy.tick at the line's last touch
	data  []byte
	dirty []uint64
	stats LevelStats
}

// maxSpareLevels bounds how many released levels of one geometry are kept
// for reuse: enough for a few systems built and closed side by side, few
// enough that the paper's hierarchy (~3.1 MB of slabs) pins at most ~25 MB.
const maxSpareLevels = 8

// spareLevels holds the levels of released hierarchies until a later
// hierarchy with the same geometry takes them (see Hierarchy.Release).
var spareLevels = pool.NewFreeList[LevelSpec, *level](maxSpareLevels)

// newLevel returns an empty level for spec: a released one reset to the
// state of a fresh one when available, else a newly allocated one.
func newLevel(spec LevelSpec) *level {
	if l, ok := spareLevels.Get(spec); ok {
		l.reset()
		return l
	}
	nsets := spec.SizeB / (spec.Ways * mem.BlockSize)
	if nsets < 1 {
		nsets = 1
	}
	n := nsets * spec.Ways
	return &level{
		spec:  spec,
		nsets: uint64(nsets),
		ways:  spec.Ways,
		gen:   1, // zeroed stamps start out invalid
		tags:  make([]uint64, n),
		gens:  make([]uint32, n),
		used:  make([]uint64, n),
		data:  make([]byte, n*mem.BlockSize),
		dirty: make([]uint64, (n+63)/64),
	}
}

// invalidate drops every line: a generation bump (the stamps reset only
// when the counter wraps) and a cleared dirty bitmap.
func (l *level) invalidate() {
	l.gen++
	if l.gen == 0 {
		clear(l.gens)
		l.gen = 1
	}
	clear(l.dirty)
}

// reset makes a released level indistinguishable from a fresh one: it
// invalidates every line and zeroes the statistics. Tags, LRU stamps and
// data keep their old values, but lookup, victim choice, flushing and
// peeking read them only for lines stamped with the current generation,
// and each such line is installed after the reset, which writes all three.
func (l *level) reset() {
	l.invalidate()
	l.stats = LevelStats{}
}

// setBase returns the index of the first line of block's set. Every
// preset has a power-of-two set count, where the modulo is a mask.
func (l *level) setBase(block uint64) int {
	if l.nsets&(l.nsets-1) == 0 {
		return int(block&(l.nsets-1)) * l.ways
	}
	return int(block%l.nsets) * l.ways
}

// line returns the bytes of line i, capacity-bounded so that a holder of
// the slice (a backend write) cannot append into the next line.
func (l *level) line(i int) []byte {
	return l.data[i*mem.BlockSize : (i+1)*mem.BlockSize : (i+1)*mem.BlockSize]
}

// isDirty reports whether line i holds modifications not yet written down.
func (l *level) isDirty(i int) bool { return l.dirty[i>>6]&(1<<(uint(i)&63)) != 0 }

// lookup returns the index of the line holding block, or -1.
//
//thynvm:hotpath
func (l *level) lookup(block uint64) int {
	base := l.setBase(block)
	for i, t := range l.tags[base : base+l.ways] {
		if t == block && l.gens[base+i] == l.gen {
			return base + i
		}
	}
	return -1
}

// victim picks the replacement line in block's set: an invalid way if one
// exists, else the LRU way.
//
//thynvm:hotpath
func (l *level) victim(block uint64) int {
	base := l.setBase(block)
	gens := l.gens[base : base+l.ways]
	used := l.used[base : base+len(gens)]
	v := 0
	for i, g := range gens {
		if g != l.gen {
			return base + i
		}
		if used[i] < used[v] {
			v = i
		}
	}
	return base + v
}

// Hierarchy is a multi-level write-back, write-allocate cache hierarchy in
// front of a Backend.
type Hierarchy struct {
	levels []*level
	back   Backend
	tick   uint64
	dirty  int // dirty lines across all levels, maintained incrementally

	// scratch is the block staging buffer for Read/Write. The hierarchy is
	// single-threaded and backend calls never reenter it, so one buffer
	// keeps the access path allocation-free.
	scratch [mem.BlockSize]byte

	// Telemetry: miss fills and memory writebacks become spans on the
	// cache track when recOn (cached flag; detached costs one branch).
	rec   obs.Recorder
	recOn bool
}

// NewHierarchy builds a hierarchy with the given level specs (outermost
// last) on top of back. With no specs the hierarchy is a transparent
// pass-through to the backend.
func NewHierarchy(back Backend, specs ...LevelSpec) *Hierarchy {
	h := &Hierarchy{back: back, levels: make([]*level, 0, len(specs))}
	for _, s := range specs {
		if s.Ways <= 0 || s.SizeB < s.Ways*mem.BlockSize {
			panic(fmt.Sprintf("cache: invalid level spec %+v", s))
		}
		h.levels = append(h.levels, newLevel(s))
	}
	return h
}

// Default returns the paper's three-level hierarchy over back.
func Default(back Backend) *Hierarchy {
	return NewHierarchy(back, L1Spec(), L2Spec(), L3Spec())
}

// SetRecorder attaches a telemetry recorder; memory-level miss fills and
// writebacks are emitted as spans on the cache track. Pass nil to detach.
func (h *Hierarchy) SetRecorder(r obs.Recorder) {
	h.rec = r
	h.recOn = r != nil && r.Enabled()
}

// Stats returns per-level statistics keyed by level name, in order.
func (h *Hierarchy) Stats() []struct {
	Name string
	LevelStats
} {
	out := make([]struct {
		Name string
		LevelStats
	}, len(h.levels))
	for i, l := range h.levels {
		out[i].Name = l.spec.Name
		out[i].LevelStats = l.stats
	}
	return out
}

// DirtyBlocks returns the number of dirty lines across all levels (volatile
// state that a checkpoint flush would have to write down). O(1).
func (h *Hierarchy) DirtyBlocks() int { return h.dirty }

// setDirty transitions line i's dirty bit in l, keeping the global
// counter.
//
//thynvm:hotpath
func (h *Hierarchy) setDirty(l *level, i int, d bool) {
	w, bit := i>>6, uint64(1)<<(uint(i)&63)
	if (l.dirty[w]&bit != 0) == d {
		return
	}
	l.dirty[w] ^= bit
	if d {
		h.dirty++
	} else {
		h.dirty--
	}
}

// fillFrom fetches block (block index) into level li and all levels above,
// returning the completion cycle and the line now in level li... The fetch
// recurses to lower levels or the backend on miss. Evicted dirty victims
// are written to the level below (or the backend).
//
//thynvm:hotpath
func (h *Hierarchy) fetch(now mem.Cycle, li int, block uint64, buf []byte) mem.Cycle {
	if li == len(h.levels) {
		return h.back.ReadBlock(now, block*mem.BlockSize, buf)
	}
	l := h.levels[li]
	now += l.spec.HitLat
	if i := l.lookup(block); i >= 0 {
		l.stats.Hits++
		h.tick++
		l.used[i] = h.tick
		copy(buf, l.data[i*mem.BlockSize:]) // buf is one block long
		return now
	}
	l.stats.Misses++
	if h.recOn && li == len(h.levels)-1 {
		// The last-level miss window is the fill that actually reaches
		// the memory controller; inner-level misses nest inside it and
		// would only repeat the same interval.
		h.rec.BeginSpan(obs.TrackCache, uint64(now), obs.SpanCacheFetch, obs.CauseExec, block)
		done := h.fetch(now, li+1, block, buf)
		h.rec.EndSpan(obs.TrackCache, uint64(done))
		h.install(done, li, block, buf, false)
		return done
	}
	done := h.fetch(now, li+1, block, buf)
	h.install(done, li, block, buf, false)
	return done
}

// install places data for block into level li, evicting as needed, and
// returns the line it now occupies. The victim's writeback is charged at
// cycle now.
func (h *Hierarchy) install(now mem.Cycle, li int, block uint64, data []byte, dirty bool) int {
	l := h.levels[li]
	v := l.victim(block)
	if l.isDirty(v) {
		l.stats.Writebacks++
		h.setDirty(l, v, false)
		h.writeBelow(now, li, l.tags[v], l.line(v))
	}
	l.gens[v] = l.gen
	h.setDirty(l, v, dirty)
	l.tags[v] = block
	h.tick++
	l.used[v] = h.tick
	copy(l.line(v), data)
	return v
}

// writeBelow delivers a dirty block evicted from level li to level li+1
// (updating in place if present, else installing) or to the backend.
func (h *Hierarchy) writeBelow(now mem.Cycle, li int, block uint64, data []byte) {
	for lj := li + 1; lj < len(h.levels); lj++ {
		l := h.levels[lj]
		if i := l.lookup(block); i >= 0 {
			copy(l.line(i), data)
			h.setDirty(l, i, true)
			h.tick++
			l.used[i] = h.tick
			return
		}
	}
	// Not present anywhere below: write back to memory. (We do not
	// allocate in lower levels on eviction; this keeps the hierarchy
	// simple and slightly exclusive, which does not affect the
	// consistency schemes under study.)
	if h.recOn {
		h.rec.BeginSpan(obs.TrackCache, uint64(now), obs.SpanCacheWriteback, obs.CauseExec, block)
		ack := h.back.WriteBlock(now, block*mem.BlockSize, data)
		h.rec.EndSpan(obs.TrackCache, uint64(ack))
		return
	}
	h.back.WriteBlock(now, block*mem.BlockSize, data)
}

// Read performs a timed read of len(buf) bytes at addr. The range must not
// cross a cache-block boundary.
//
//thynvm:hotpath
func (h *Hierarchy) Read(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	//thynvm:allow-alloc checkRange allocates only on the out-of-range panic path
	if err := checkRange(addr, len(buf)); err != nil {
		panic(err)
	}
	blk := h.scratch[:]
	if len(h.levels) == 0 {
		h.live()
		done := h.back.ReadBlock(now, mem.BlockAlign(addr), blk)
		copy(buf, blk[addr-mem.BlockAlign(addr):])
		return done
	}
	block := mem.BlockIndex(addr)
	done := h.fetch(now, 0, block, blk)
	copy(buf, blk[addr%mem.BlockSize:])
	return done
}

// Write performs a timed write of data at addr (write-allocate, write-back).
// The range must not cross a cache-block boundary.
//
//thynvm:hotpath
func (h *Hierarchy) Write(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	//thynvm:allow-alloc checkRange allocates only on the out-of-range panic path
	if err := checkRange(addr, len(data)); err != nil {
		panic(err)
	}
	if len(h.levels) == 0 {
		// No caches: read-modify-write the block directly in memory.
		h.live()
		base := mem.BlockAlign(addr)
		blk := h.scratch[:]
		done := h.back.ReadBlock(now, base, blk)
		copy(blk[addr-base:], data)
		return h.back.WriteBlock(done, base, blk)
	}
	block := mem.BlockIndex(addr)
	l1 := h.levels[0]
	now += l1.spec.HitLat
	i := l1.lookup(block)
	if i < 0 {
		// Write-allocate: fetch the block, then modify in L1.
		l1.stats.Misses++
		blk := h.scratch[:]
		done := h.fetch(now, 1, block, blk)
		i = h.install(done, 0, block, blk, false)
		now = done
	} else {
		l1.stats.Hits++
	}
	copy(l1.data[i*mem.BlockSize+int(addr%mem.BlockSize):], data) // checkRange keeps data in the block
	h.setDirty(l1, i, true)
	h.tick++
	l1.used[i] = h.tick
	return now
}

func checkRange(addr uint64, n int) error {
	if n <= 0 || n > mem.BlockSize {
		return fmt.Errorf("cache: access size %d out of range", n)
	}
	if mem.BlockAlign(addr) != mem.BlockAlign(addr+uint64(n)-1) {
		return fmt.Errorf("cache: access at %#x size %d crosses a block boundary", addr, n)
	}
	return nil
}

// FlushDirty writes every dirty block in the hierarchy down to the backend
// and marks the lines clean without invalidating them (CLWB-like, as the
// paper specifies to preserve locality after a checkpoint). It returns the
// cycle at which the last flush write was issued and the number of blocks
// flushed. perBlockIssue is the pipeline cost charged to issue each flush.
//
// Each level's dirty bitmap is walked in line order — set by set, way by
// way — so the writes go out in the same order as a full walk of every
// line would issue them, at a cost proportional to the bitmap's words
// plus the dirty lines.
func (h *Hierarchy) FlushDirty(now mem.Cycle, perBlockIssue mem.Cycle) (mem.Cycle, int) {
	h.live()
	flushed := 0
	// Upper levels hold the newest data; flushing a block from an upper
	// level supersedes stale dirty copies below, so clean those too.
	for li, l := range h.levels {
		for wi, w := range l.dirty {
			// Only syncBelow touches other lines, and only in lower
			// levels, so the word read at the top of the loop stays exact.
			for ; w != 0; w &= w - 1 {
				i := wi<<6 + bits.TrailingZeros64(w)
				tag, data := l.tags[i], l.line(i)
				now += perBlockIssue
				now = h.back.WriteBlock(now, tag*mem.BlockSize, data)
				h.setDirty(l, i, false)
				l.stats.Flushed++
				flushed++
				h.syncBelow(li, tag, data)
			}
		}
	}
	return now, flushed
}

// syncBelow refreshes copies of block in levels below li with the just-
// flushed data and cleans them. Leaving them stale would let a later
// lower-level hit (after the upper copy is silently evicted) serve old
// data.
func (h *Hierarchy) syncBelow(li int, block uint64, data []byte) {
	for lj := li + 1; lj < len(h.levels); lj++ {
		l := h.levels[lj]
		if i := l.lookup(block); i >= 0 {
			copy(l.line(i), data)
			h.setDirty(l, i, false)
		}
	}
}

// PeekOverlay overlays the hierarchy's cached copy of the block at base
// (block-aligned) onto buf, if any level holds it, without disturbing
// timing or replacement state. Upper levels hold the newest data, so the
// first hit wins. Verification-only.
func (h *Hierarchy) PeekOverlay(base uint64, buf []byte) {
	h.live()
	block := base / mem.BlockSize
	for _, l := range h.levels {
		if i := l.lookup(block); i >= 0 {
			copy(buf, l.line(i))
			return
		}
	}
}

// InvalidateAll drops all cached state (a crash: caches are volatile). It
// costs one generation bump and a bitmap clear per level, not a pass over
// every line; only a wrapped generation counter resets the stamps.
func (h *Hierarchy) InvalidateAll() {
	h.live()
	for _, l := range h.levels {
		l.invalidate()
	}
	h.dirty = 0
}

// Release hands the hierarchy's levels back for reuse by hierarchies built
// later with the same level specs, and drops its backend and recorder. The
// hierarchy must not be used afterwards: it has no levels and no backend
// left, so any access panics. Releasing twice is a no-op.
func (h *Hierarchy) Release() {
	for i, l := range h.levels {
		spareLevels.Put(l.spec, l)
		h.levels[i] = nil
	}
	h.levels, h.back, h.dirty = nil, nil, 0
	h.rec, h.recOn = nil, false
}

// live panics on a released hierarchy.
func (h *Hierarchy) live() {
	if h.back == nil {
		panic("cache: hierarchy used after Release")
	}
}
