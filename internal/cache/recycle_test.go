package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thynvm/internal/mem"
)

// recycleGeometries names level stacks used only by the recycling tests:
// their specs (names included) appear nowhere else, so the free list's
// entries for them are exactly the levels these tests release.
func recycleGeometries() map[string][]LevelSpec {
	rename := func(prefix string, specs ...LevelSpec) []LevelSpec {
		for i := range specs {
			specs[i].Name = prefix + specs[i].Name
		}
		return specs
	}
	return map[string][]LevelSpec{
		"tiny": rename("recycle-tiny-",
			LevelSpec{Name: "L1", SizeB: 256, Ways: 2, HitLat: 4},
			LevelSpec{Name: "L2", SizeB: 512, Ways: 2, HitLat: 12},
		),
		"odd-sets": rename("recycle-odd-",
			LevelSpec{Name: "L1", SizeB: 3 * 2 * 64, Ways: 2, HitLat: 1},
			LevelSpec{Name: "L2", SizeB: 5 * 4 * 64, Ways: 4, HitLat: 3},
			LevelSpec{Name: "L3", SizeB: 7 * 8 * 64, Ways: 8, HitLat: 9},
		),
		"paper": rename("recycle-paper-", L1Spec(), L2Spec(), L3Spec()),
	}
}

// TestRecycledLevelMatchesFresh drives a hierarchy dirty, releases it, and
// then runs the same randomized access, flush, peek and InvalidateAll
// sequence on a hierarchy built from the released levels and on a freshly
// allocated one: cycles, statistics, dirty counts, peeked bytes and the
// backend call log must all agree. The wrap variant releases levels whose
// generation counter is about to wrap, so the reset takes the stamp-clearing
// path.
func TestRecycledLevelMatchesFresh(t *testing.T) {
	for name, specs := range recycleGeometries() {
		for _, wrap := range []bool{false, true} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/wrap=%v/seed%d", name, wrap, seed), func(t *testing.T) {
					diffRecycled(t, specs, seed, wrap)
				})
			}
		}
	}
}

func diffRecycled(t *testing.T, specs []LevelSpec, seed int64, wrap bool) {
	rng := rand.New(rand.NewSource(seed))
	old := NewHierarchy(newLogBackend(), specs...)
	span := uint64(4 * specs[len(specs)-1].SizeB)
	var now mem.Cycle
	for i := 0; i < 3000; i++ {
		addr := uint64(rng.Int63n(int64(span)))
		data := make([]byte, 1+rng.Intn(int(mem.BlockSize-addr%mem.BlockSize)))
		rng.Read(data)
		if rng.Intn(4) == 0 {
			now = old.Read(now, addr, data)
		} else {
			now = old.Write(now, addr, data)
		}
	}
	if old.DirtyBlocks() == 0 {
		t.Fatal("set-up left no dirty lines to forget")
	}
	released := append([]*level(nil), old.levels...)
	for _, l := range released {
		if l.stats == (LevelStats{}) {
			t.Fatalf("%s: set-up left no statistics to reset", l.spec.Name)
		}
		if wrap {
			l.gen = math.MaxUint32
		}
	}
	old.Release()

	gb, fb := newLogBackend(), newLogBackend()
	got := NewHierarchy(gb, specs...)
	fresh := NewHierarchy(fb, specs...)
	for i, l := range got.levels {
		if l != released[i] {
			t.Fatalf("%s was not built from the released level", l.spec.Name)
		}
		if wrap && l.gen != 1 {
			t.Fatalf("%s gen = %d after a wrapping reset, want 1", l.spec.Name, l.gen)
		}
		if fresh.levels[i] == l {
			t.Fatalf("%s handed out twice", l.spec.Name)
		}
	}
	diffModels(t, got, fresh, gb, fb, specs, rng)
}

// TestReleasedHierarchyPanics checks that a released hierarchy fails loudly
// on every entry point instead of passing accesses through to nothing, and
// that releasing twice is harmless.
func TestReleasedHierarchyPanics(t *testing.T) {
	buf := make([]byte, 8)
	entries := map[string]func(h *Hierarchy){
		"Read":          func(h *Hierarchy) { h.Read(0, 0, buf) },
		"Write":         func(h *Hierarchy) { h.Write(0, 0, buf) },
		"FlushDirty":    func(h *Hierarchy) { h.FlushDirty(0, 1) },
		"PeekOverlay":   func(h *Hierarchy) { h.PeekOverlay(0, make([]byte, mem.BlockSize)) },
		"InvalidateAll": func(h *Hierarchy) { h.InvalidateAll() },
	}
	for name, call := range entries {
		for _, cached := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/cached=%v", name, cached), func(t *testing.T) {
				var h *Hierarchy
				if cached {
					h = tinyHierarchy(newFlatBackend())
				} else {
					h = NewHierarchy(newFlatBackend())
				}
				h.Write(0, 0, buf)
				h.Release()
				h.Release()
				if len(h.levels) != 0 || h.back != nil {
					t.Fatalf("released hierarchy keeps %d levels, backend %v", len(h.levels), h.back)
				}
				defer func() {
					if recover() == nil {
						t.Fatalf("%s on a released hierarchy did not panic", name)
					}
				}()
				call(h)
			})
		}
	}
}
