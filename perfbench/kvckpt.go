package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"thynvm"
	"thynvm/internal/alloc"
	"thynvm/internal/ctl"
	"thynvm/internal/kv"
	"thynvm/internal/mem"
	"thynvm/internal/sim"
)

const (
	kvHeaderAddr = 64
	kvArenaBase  = 4096
	// kvLivePct is the share of the key space live in steady state: a
	// uniform 35% put / 15% delete stream keeps 35/(35+15) of keys present.
	kvLivePct = 70
)

var (
	kvStores  = []string{"hashtable", "rbtree"}
	kvSystems = []thynvm.SystemKind{thynvm.SystemThyNVM, thynvm.SystemJournal, thynvm.SystemShadow}
)

// kvCell is one store on one system.
type kvCell struct {
	store string
	sys   *thynvm.System
	m     *sim.Machine // the machine the store runs on
	arena *alloc.Arena
	st    kv.Store
	rng   *rand.Rand
	model []uint64 // value tag per key; 0 = absent
	tag   uint64
	gets  uint64
	hits  uint64
}

// kvWorkload is the Fig. 9 storage benchmark: a seeded 50% get / 35% put /
// 15% delete mix of 4096-B values on the hash-table and red-black-tree
// stores, on ThyNVM, Journal and Shadow, with 1 ms epochs and checkpoints
// at transaction boundaries.
type kvWorkload struct {
	cfg   config
	t     *tracer
	cells []*kvCell
	val   []byte
	want  []byte

	snap0    []kvSnap
	sim0     metricSet
	digest0  string
	flushEnd int64 // tracer clock when the last checkpoint's flush ended

	warmTx, warmFailed int
}

func newKVWorkload(cfg config, t *tracer) *kvWorkload {
	return &kvWorkload{cfg: cfg, t: t, val: make([]byte, cfg.size.kvValue), want: make([]byte, cfg.size.kvValue)}
}

// fillValue writes the value pattern of tag.
func fillValue(buf []byte, tag uint64) {
	x := tag * 0x9E3779B97F4A7C15
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], x+uint64(i))
	}
}

func (w *kvWorkload) setup() error {
	keys := uint64(w.cfg.size.kvKeys)
	// The arena holds every key's value and node at once, so it can never
	// run out, whatever the mix does.
	arenaSize := keys*(uint64(w.cfg.size.kvValue)+128) + keys*8 + (1 << 20)
	opts := thynvm.DefaultOptions()
	opts.EpochLen = time.Millisecond
	for _, store := range kvStores {
		for _, kind := range kvSystems {
			sys, err := newSystem(w.t, kind, opts)
			if err != nil {
				return err
			}
			c := &kvCell{store: store, sys: sys, m: sys.Machine, model: make([]uint64, keys),
				rng: rand.New(rand.NewSource(mixSeed(w.cfg.seed, uint64(len(w.cells)))))}
			w.cells = append(w.cells, c)
			if w.t != nil {
				c.m = rehost(sys.Machine.Controller(), w.t, kind == thynvm.SystemThyNVM)
				// The hook runs once the cache flush is done, right before
				// BeginCheckpoint; it only reads the clock.
				c.m.PreCheckpoint = func(*sim.Machine) { w.flushEnd = w.t.now() }
			}
			var m kv.Memory = c.m
			if w.cfg.kvMem != nil {
				m = w.cfg.kvMem(m)
			}
			if w.t != nil {
				m = tracedMem{m: m, t: w.t}
			}
			if c.arena, err = alloc.New(kvArenaBase, arenaSize); err != nil {
				return err
			}
			if store == "hashtable" {
				c.st, err = kv.NewHashTable(m, c.arena, kvHeaderAddr, keys/2)
			} else {
				c.st, err = kv.NewRBTree(m, c.arena, kvHeaderAddr)
			}
			if err != nil {
				return err
			}
			// As in the Fig. 9 harness: checkpoints carry the allocator
			// state and are taken only between transactions.
			c.m.SetProgramState(c.arena.Serialize, func([]byte) error { return nil })
			c.m.DisableAutoCheckpoint()

			// Preload the steady-state live set, then settle the
			// checkpoint pipeline.
			perm := c.rng.Perm(int(keys))
			for _, k := range perm[:len(perm)*kvLivePct/100] {
				c.tag++
				fillValue(w.val, c.tag)
				if err := c.st.Put(uint64(k), w.val); err != nil {
					return fmt.Errorf("preload %s/%s: %w", store, kind, err)
				}
				c.model[k] = c.tag
				w.pause(c)
			}
			for i := 0; i < 8; i++ {
				c.m.Checkpoint()
				c.m.Drain()
			}
			// Warm up on the measured mix. Its checks count like the
			// measured ones.
			for i := 0; i < w.cfg.size.kvWarmTx; i++ {
				w.warmTx++
				if !w.tx(c) {
					w.warmFailed++
				}
			}
			c.m.Drain()
		}
	}
	return nil
}

// pause is the transaction boundary: the only place a checkpoint may start.
func (w *kvWorkload) pause(c *kvCell) {
	t := w.t
	if t == nil {
		c.m.CheckpointIfDue()
		return
	}
	calls, flushed := c.m.CheckpointCalls(), c.m.FlushedBlocks()
	t.begin(lPoll)
	start := t.now()
	c.m.CheckpointIfDue()
	if c.m.CheckpointCalls() != calls {
		t.relabel(lCheckpoint)
		t.flushed += c.m.FlushedBlocks() - flushed
		t.flushNs += w.flushEnd - start
	}
	t.end()
}

// tx runs one transaction and checks its output against the model.
func (w *kvWorkload) tx(c *kvCell) bool {
	k := uint64(c.rng.Int63n(int64(len(c.model))))
	p := c.rng.Intn(100)
	tag := c.model[k]
	if p >= 50 && p < 85 {
		c.tag++
		fillValue(w.val, c.tag)
	}
	var (
		got       []byte
		found, ok bool
		err       error
	)
	if w.t != nil {
		w.t.begin(lKVTx)
	}
	switch {
	case p < 50:
		got, found, err = c.st.Get(k)
	case p < 85:
		err = c.st.Put(k, w.val)
	default:
		found, err = c.st.Delete(k)
	}
	if w.t != nil {
		w.t.end()
	}
	switch {
	case p < 50:
		c.gets++
		if found {
			c.hits++
		}
		ok = err == nil && found == (tag != 0)
		if ok && found {
			fillValue(w.want, tag)
			ok = bytes.Equal(got, w.want)
		}
	case p < 85:
		ok = err == nil
		c.model[k] = c.tag
	default:
		ok = err == nil && found == (tag != 0)
		c.model[k] = 0
	}
	w.pause(c)
	return ok
}

func (w *kvWorkload) round(r int) (ops, checked, failed int) {
	if r == 0 {
		w.snap0 = w.snapshot()
	}
	for _, c := range w.cells {
		for i := 0; i < w.cfg.size.kvTx; i++ {
			if !w.tx(c) {
				failed++
			}
		}
		if w.t != nil {
			w.t.begin(lDrain)
		}
		c.m.Drain()
		if w.t != nil {
			w.t.end()
		}
		ops += w.cfg.size.kvTx
	}
	if r == 0 {
		w.summarizeRound0(w.snapshot())
	}
	return ops, ops, failed
}

// kvSnap is one cell's simulated state at a round boundary.
type kvSnap struct {
	Store, System string
	Now           uint64
	Checkpoints   uint64
	CkptStall     uint64
	Flushed       uint64
	Retired       uint64
	MemStall      uint64
	Gets, Hits    uint64
	Live          int
	Ctrl          ctl.Stats
	Caches        [][2]uint64 // hits, misses per level
}

func (w *kvWorkload) snapshot() []kvSnap {
	out := make([]kvSnap, len(w.cells))
	for i, c := range w.cells {
		s := kvSnap{
			Store: c.store, System: c.sys.Kind.String(),
			Now: uint64(c.m.Now()), Checkpoints: c.m.CheckpointCalls(),
			CkptStall: uint64(c.m.CheckpointStall()), Flushed: c.m.FlushedBlocks(),
			Retired: c.m.Core().Retired, MemStall: uint64(c.m.Core().StallCycles),
			Gets: c.gets, Hits: c.hits, Ctrl: c.sys.Stats(),
		}
		for _, tag := range c.model {
			if tag != 0 {
				s.Live++
			}
		}
		for _, l := range c.m.Caches().Stats() {
			s.Caches = append(s.Caches, [2]uint64{l.Hits, l.Misses})
		}
		out[i] = s
	}
	return out
}

func (w *kvWorkload) summarizeRound0(end []kvSnap) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	var cycles, tx, ckptStall, memStall, gets, hits float64
	var nvm [mem.NumWriteSources]uint64
	var dram uint64
	var cacheHit, cacheMiss [3]float64
	for i, e := range end {
		b := w.snap0[i]
		enc.Encode(b)
		enc.Encode(e)
		cycles += float64(e.Now - b.Now)
		ckptStall += float64(e.CkptStall-b.CkptStall) + float64(e.Ctrl.CkptStall-b.Ctrl.CkptStall)
		memStall += float64(e.MemStall - b.MemStall)
		gets += float64(e.Gets - b.Gets)
		hits += float64(e.Hits - b.Hits)
		for s := range nvm {
			nvm[s] += e.Ctrl.NVM.BytesBySource[s] - b.Ctrl.NVM.BytesBySource[s]
		}
		dram += e.Ctrl.DRAM.BytesWritten - b.Ctrl.DRAM.BytesWritten
		for l := 0; l < len(e.Caches) && l < 3; l++ {
			cacheHit[l] += float64(e.Caches[l][0] - b.Caches[l][0])
			cacheMiss[l] += float64(e.Caches[l][1] - b.Caches[l][1])
		}
		tx += float64(w.cfg.size.kvTx)
	}
	w.digest0 = fmt.Sprintf("%x", h.Sum(nil)[:12])
	w.sim0 = simMetricSet(cycles, tx, ckptStall, memStall, nvm, dram, cacheHit, cacheMiss)
	w.sim0["kv.get.hit_ratio"] = ratio(hits, gets)
}

func (w *kvWorkload) digest() string { return w.digest0 }

func (w *kvWorkload) simMetrics(ms metricSet) {
	for k, v := range w.sim0 {
		ms[k] = v
	}
	if w.t != nil {
		ms["sim.checkpoint.flushed_blocks"] = float64(w.t.flushed)
		ms["sim.checkpoint.ns_per_flushed_block"] = ratio(float64(w.t.flushNs), float64(w.t.flushed))
	}
}

// peekMem is a read-only view of the software-visible image: loads go
// through Machine.Peek, which neither advances time nor touches the caches.
type peekMem struct{ m *sim.Machine }

func (p peekMem) Read(addr uint64, buf []byte) { p.m.Peek(addr, buf) }
func (p peekMem) Write(uint64, []byte)         { panic("perfbench: write through the read-only view") }

// finish compares every key of every store with the model, reading the
// stores through an untimed view so the check perturbs nothing. The
// warm-up's transactions are counted here too.
func (w *kvWorkload) finish() (attempted, failed int, ok bool) {
	attempted, failed = w.warmTx, w.warmFailed
	contentFailed := 0
	for _, c := range w.cells {
		view := peekMem{c.m}
		var st kv.Store
		var err error
		if c.store == "hashtable" {
			st, err = kv.OpenHashTable(view, c.arena, kvHeaderAddr)
		} else {
			st, err = kv.OpenRBTree(view, c.arena, kvHeaderAddr)
		}
		attempted += len(c.model)
		if err != nil {
			contentFailed += len(c.model)
			continue
		}
		live := 0
		for k, tag := range c.model {
			got, found, err := st.Get(uint64(k))
			good := err == nil && found == (tag != 0)
			if good && found {
				live++
				fillValue(w.want, tag)
				good = bytes.Equal(got, w.want)
			}
			if !good {
				contentFailed++
			}
		}
		if n, err := st.Len(); err != nil || n != uint64(live) {
			contentFailed++
		}
	}
	return attempted, failed + contentFailed, contentFailed == 0
}

func (w *kvWorkload) nvmWrites() uint64 {
	var n uint64
	for _, c := range w.cells {
		n += c.sys.Stats().NVM.Writes
	}
	return n
}

func (w *kvWorkload) close() {
	for _, c := range w.cells {
		c.sys.Close()
	}
}
