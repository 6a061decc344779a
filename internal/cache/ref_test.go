package cache

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thynvm/internal/mem"
)

// refHierarchy is the naive reference for the differential test below: one
// object per line, validity and dirtiness as per-line flags, and full
// walks of every line for FlushDirty and InvalidateAll. It implements the
// same contract as Hierarchy in the most direct way, so any divergence
// points at the slab, bitmap or generation bookkeeping.
type refLine struct {
	tag     uint64
	valid   bool
	dirty   bool
	lastUse uint64
	data    []byte
}

type refLevel struct {
	spec  LevelSpec
	sets  [][]refLine
	stats LevelStats
}

type refHierarchy struct {
	levels []*refLevel
	back   Backend
	tick   uint64
}

func newRefHierarchy(back Backend, specs ...LevelSpec) *refHierarchy {
	h := &refHierarchy{back: back}
	for _, s := range specs {
		nsets := max(s.SizeB/(s.Ways*mem.BlockSize), 1)
		l := &refLevel{spec: s, sets: make([][]refLine, nsets)}
		for i := range l.sets {
			l.sets[i] = make([]refLine, s.Ways)
			for w := range l.sets[i] {
				l.sets[i][w].data = make([]byte, mem.BlockSize)
			}
		}
		h.levels = append(h.levels, l)
	}
	return h
}

func (l *refLevel) lookup(block uint64) *refLine {
	set := l.sets[block%uint64(len(l.sets))]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return &set[i]
		}
	}
	return nil
}

func (l *refLevel) victim(block uint64) *refLine {
	set := l.sets[block%uint64(len(l.sets))]
	var v *refLine
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if v == nil || set[i].lastUse < v.lastUse {
			v = &set[i]
		}
	}
	return v
}

func (h *refHierarchy) dirtyBlocks() int {
	n := 0
	for _, l := range h.levels {
		for _, set := range l.sets {
			for _, ln := range set {
				if ln.valid && ln.dirty {
					n++
				}
			}
		}
	}
	return n
}

func (h *refHierarchy) fetch(now mem.Cycle, li int, block uint64, buf []byte) mem.Cycle {
	if li == len(h.levels) {
		return h.back.ReadBlock(now, block*mem.BlockSize, buf)
	}
	l := h.levels[li]
	now += l.spec.HitLat
	if ln := l.lookup(block); ln != nil {
		l.stats.Hits++
		h.tick++
		ln.lastUse = h.tick
		copy(buf, ln.data)
		return now
	}
	l.stats.Misses++
	done := h.fetch(now, li+1, block, buf)
	h.install(done, li, block, buf, false)
	return done
}

func (h *refHierarchy) install(now mem.Cycle, li int, block uint64, data []byte, dirty bool) *refLine {
	l := h.levels[li]
	v := l.victim(block)
	if v.valid && v.dirty {
		l.stats.Writebacks++
		v.dirty = false
		h.writeBelow(now, li, v.tag, v.data)
	}
	v.valid, v.dirty, v.tag = true, dirty, block
	h.tick++
	v.lastUse = h.tick
	copy(v.data, data)
	return v
}

func (h *refHierarchy) writeBelow(now mem.Cycle, li int, block uint64, data []byte) {
	for lj := li + 1; lj < len(h.levels); lj++ {
		if ln := h.levels[lj].lookup(block); ln != nil {
			copy(ln.data, data)
			ln.dirty = true
			h.tick++
			ln.lastUse = h.tick
			return
		}
	}
	h.back.WriteBlock(now, block*mem.BlockSize, data)
}

func (h *refHierarchy) Read(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	blk := make([]byte, mem.BlockSize)
	done := h.fetch(now, 0, mem.BlockIndex(addr), blk)
	copy(buf, blk[addr%mem.BlockSize:])
	return done
}

func (h *refHierarchy) Write(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	block := mem.BlockIndex(addr)
	l1 := h.levels[0]
	now += l1.spec.HitLat
	ln := l1.lookup(block)
	if ln == nil {
		l1.stats.Misses++
		blk := make([]byte, mem.BlockSize)
		done := h.fetch(now, 1, block, blk)
		ln = h.install(done, 0, block, blk, false)
		now = done
	} else {
		l1.stats.Hits++
	}
	copy(ln.data[addr%mem.BlockSize:], data)
	ln.dirty = true
	h.tick++
	ln.lastUse = h.tick
	return now
}

func (h *refHierarchy) FlushDirty(now, perBlockIssue mem.Cycle) (mem.Cycle, int) {
	flushed := 0
	for li, l := range h.levels {
		for _, set := range l.sets {
			for wi := range set {
				ln := &set[wi]
				if !ln.valid || !ln.dirty {
					continue
				}
				now += perBlockIssue
				now = h.back.WriteBlock(now, ln.tag*mem.BlockSize, ln.data)
				ln.dirty = false
				l.stats.Flushed++
				flushed++
				for lj := li + 1; lj < len(h.levels); lj++ {
					if low := h.levels[lj].lookup(ln.tag); low != nil {
						copy(low.data, ln.data)
						low.dirty = false
					}
				}
			}
		}
	}
	return now, flushed
}

func (h *refHierarchy) PeekOverlay(base uint64, buf []byte) {
	for _, l := range h.levels {
		if ln := l.lookup(base / mem.BlockSize); ln != nil {
			copy(buf, ln.data)
			return
		}
	}
}

func (h *refHierarchy) InvalidateAll() {
	for _, l := range h.levels {
		for _, set := range l.sets {
			for wi := range set {
				set[wi].valid, set[wi].dirty = false, false
			}
		}
	}
}

// logBackend records every backend call in order, with the bytes written,
// and answers with latencies derived from the address so that timing
// differences between the two hierarchies would show in the cycles.
type logBackend struct {
	store *mem.Storage
	log   []string
}

func newLogBackend() *logBackend { return &logBackend{store: mem.NewStorage()} }

func (b *logBackend) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	b.store.Read(addr, buf)
	b.log = append(b.log, fmt.Sprintf("R %d %#x", now, addr))
	return now + 100 + mem.Cycle(addr>>6&31)
}

func (b *logBackend) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	b.store.Write(addr, data)
	b.log = append(b.log, fmt.Sprintf("W %d %#x %x", now, addr, data))
	return now + mem.Cycle(addr>>6&7)
}

// TestHierarchyMatchesReference drives the slab hierarchy and the naive
// reference with the same randomized Read/Write/FlushDirty/InvalidateAll/
// PeekOverlay sequences and requires identical completion cycles, level
// statistics, dirty counts, peeked bytes, and backend call order and
// payloads.
func TestHierarchyMatchesReference(t *testing.T) {
	geometries := map[string][]LevelSpec{
		"tiny": {
			{Name: "L1", SizeB: 256, Ways: 2, HitLat: 4},
			{Name: "L2", SizeB: 512, Ways: 2, HitLat: 12},
		},
		"odd-sets": { // non-power-of-two set counts and a 3-level stack
			{Name: "L1", SizeB: 3 * 2 * 64, Ways: 2, HitLat: 1},
			{Name: "L2", SizeB: 5 * 4 * 64, Ways: 4, HitLat: 3},
			{Name: "L3", SizeB: 7 * 8 * 64, Ways: 8, HitLat: 9},
		},
		"paper": {L1Spec(), L2Spec(), L3Spec()},
	}
	for name, specs := range geometries {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				diffHierarchies(t, specs, seed)
			})
		}
	}
}

func diffHierarchies(t *testing.T, specs []LevelSpec, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	gb, rb := newLogBackend(), newLogBackend()
	got, ref := NewHierarchy(gb, specs...), newRefHierarchy(rb, specs...)
	// Keep the footprint a few times the outermost level so hits,
	// conflicts and dirty evictions all occur.
	last := specs[len(specs)-1]
	span := uint64(4 * last.SizeB)
	var now mem.Cycle
	for op := 0; op < 4000; op++ {
		addr := uint64(rng.Int63n(int64(span)))
		n := 1 + rng.Intn(int(mem.BlockSize-addr%mem.BlockSize))
		switch k := rng.Intn(100); {
		case k < 40:
			g, r := make([]byte, n), make([]byte, n)
			dg, dr := got.Read(now, addr, g), ref.Read(now, addr, r)
			if dg != dr || !bytes.Equal(g, r) {
				t.Fatalf("op %d Read(%d, %#x, %d) = %d %x, reference %d %x", op, now, addr, n, dg, g, dr, r)
			}
			now = dg
		case k < 85:
			data := make([]byte, n)
			rng.Read(data)
			dg, dr := got.Write(now, addr, data), ref.Write(now, addr, data)
			if dg != dr {
				t.Fatalf("op %d Write(%d, %#x, %d) = %d, reference %d", op, now, addr, n, dg, dr)
			}
			now = dg
		case k < 92:
			g, r := make([]byte, mem.BlockSize), make([]byte, mem.BlockSize)
			got.PeekOverlay(mem.BlockAlign(addr), g)
			ref.PeekOverlay(mem.BlockAlign(addr), r)
			if !bytes.Equal(g, r) {
				t.Fatalf("op %d PeekOverlay(%#x) = %x, reference %x", op, mem.BlockAlign(addr), g, r)
			}
		case k < 98:
			issue := mem.Cycle(rng.Intn(4))
			ng, fg := got.FlushDirty(now, issue)
			nr, fr := ref.FlushDirty(now, issue)
			if ng != nr || fg != fr {
				t.Fatalf("op %d FlushDirty = (%d, %d), reference (%d, %d)", op, ng, fg, nr, fr)
			}
			now = ng
		default:
			got.InvalidateAll()
			ref.InvalidateAll()
		}
		now += mem.Cycle(rng.Intn(8))
		for i, st := range got.Stats() {
			if st.LevelStats != ref.levels[i].stats {
				t.Fatalf("op %d %s stats %+v, reference %+v", op, st.Name, st.LevelStats, ref.levels[i].stats)
			}
		}
		// The reference counts dirty lines by a full walk; on the paper's
		// geometry do that walk only now and then.
		if last.SizeB > 64<<10 && op%64 != 0 {
			continue
		}
		if g, r := got.DirtyBlocks(), ref.dirtyBlocks(); g != r {
			t.Fatalf("op %d DirtyBlocks = %d, reference %d", op, g, r)
		}
	}
	if len(gb.log) != len(rb.log) {
		t.Fatalf("%d backend calls, reference %d", len(gb.log), len(rb.log))
	}
	for i := range gb.log {
		if gb.log[i] != rb.log[i] {
			t.Fatalf("backend call %d: %s, reference %s", i, gb.log[i], rb.log[i])
		}
	}
}

// TestInvalidateAllGenerationWrap forces the validity stamp to wrap and
// checks that nothing cached before the wrap comes back to life.
func TestInvalidateAllGenerationWrap(t *testing.T) {
	b := newFlatBackend()
	h := tinyHierarchy(b)
	h.Write(0, 0, []byte{1})
	h.FlushDirty(0, 1)
	h.Write(0, 64, []byte{2}) // dirty, never flushed: lost at the wrap
	for _, l := range h.levels {
		l.gen = math.MaxUint32
	}
	h.InvalidateAll()
	for _, l := range h.levels {
		if l.gen != 1 {
			t.Fatalf("%s gen = %d after wrap, want 1", l.spec.Name, l.gen)
		}
	}
	if h.DirtyBlocks() != 0 {
		t.Fatalf("DirtyBlocks = %d after InvalidateAll", h.DirtyBlocks())
	}
	reads := b.reads
	got := make([]byte, 1)
	h.Read(0, 64, got)
	if b.reads != reads+1 || got[0] != 0 {
		t.Fatalf("read after wrap = %d from cache (backend reads %d -> %d), want a miss returning 0", got[0], reads, b.reads)
	}
}
