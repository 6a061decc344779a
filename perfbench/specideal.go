package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"thynvm"
	"thynvm/internal/mem"
	"thynvm/internal/sim"
	"thynvm/internal/trace"
)

// specFootprint caps the SPEC stand-ins at 16 MB, eight times the L3.
const specFootprint = 16 << 20

var (
	specApps    = []string{"soplex", "omnetpp", "milc"}
	specSystems = []thynvm.SystemKind{thynvm.SystemIdealDRAM, thynvm.SystemIdealNVM}
)

type specCell struct {
	app string
	sys *thynvm.System
	m   *sim.Machine
}

// specWorkload runs three Fig. 11 SPEC stand-ins on the two ideal systems,
// which never checkpoint: host time goes to trace generation, the cache
// hierarchy and the device read path.
type specWorkload struct {
	cfg   config
	t     *tracer
	cells []*specCell
	nvm   uint64 // NVM device writes over every run so far

	sim0    metricSet
	digest0 string
}

func newSpecWorkload(cfg config, t *tracer) *specWorkload { return &specWorkload{cfg: cfg, t: t} }

func (w *specWorkload) setup() error {
	for _, kind := range specSystems {
		for _, app := range specApps {
			sys, err := newSystem(w.t, kind, thynvm.DefaultOptions())
			if err != nil {
				return err
			}
			c := &specCell{app: app, sys: sys, m: sys.Machine}
			w.cells = append(w.cells, c)
			if w.t != nil {
				c.m = rehost(sys.Machine.Controller(), w.t, false)
			}
			// Warm the caches and the device rows on a trace of its own.
			if _, ok, err := w.runTrace(len(w.cells)-1, -1, w.cfg.size.specWarmOps); err != nil || !ok {
				return fmt.Errorf("warm-up %s/%s: %v", app, kind, err)
			}
		}
	}
	return nil
}

// runTrace runs round r's trace on cell i and checks the result.
func (w *specWorkload) runTrace(i, r, ops int) (sim.Result, bool, error) {
	c := w.cells[i]
	g, err := trace.SPEC(c.app, specFootprint, ops, mixSeed(w.cfg.seed, uint64(i)<<32+uint64(r+1)))
	if err != nil {
		return sim.Result{}, false, err
	}
	var res sim.Result
	if w.t == nil {
		res = c.sys.Run(g)
	} else {
		// The span covers the whole run; with trace.next and the controller
		// timed as its children, its self time is the cache and cpu time.
		// It counts as one access per trace operation.
		w.t.begin(lAccess)
		res = sim.RunTrace(c.m, tracedGen{Generator: g, t: w.t}, c.sys.Kind.String())
		w.t.end()
		if res.Ops > 0 {
			w.t.calls[lAccess] += res.Ops - 1
		}
	}
	w.nvm += res.Ctrl.NVM.Writes
	ok := res.Ops == uint64(ops) && res.Ctrl.CheckAccounting() == nil
	return res, ok, nil
}

// cacheStats returns each cell's hits and misses per cache level.
func (w *specWorkload) cacheStats() (hits, misses [][3]uint64) {
	hits, misses = make([][3]uint64, len(w.cells)), make([][3]uint64, len(w.cells))
	for i, c := range w.cells {
		for l, s := range c.m.Caches().Stats() {
			if l < 3 {
				hits[i][l], misses[i][l] = s.Hits, s.Misses
			}
		}
	}
	return hits, misses
}

func (w *specWorkload) round(r int) (ops, checked, failed int) {
	var hits0, miss0 [][3]uint64
	var results []sim.Result
	if r == 0 {
		hits0, miss0 = w.cacheStats()
	}
	n := w.cfg.size.specOps
	for i := range w.cells {
		res, ok, err := w.runTrace(i, r, n)
		if err != nil || !ok {
			failed += n
		}
		ops += n
		results = append(results, res)
	}
	if r == 0 {
		w.summarizeRound0(results, hits0, miss0)
	}
	return ops, ops, failed
}

func (w *specWorkload) summarizeRound0(results []sim.Result, hits0, miss0 [][3]uint64) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	var cycles, ops, ckpt, memStall float64
	var nvm [mem.NumWriteSources]uint64
	var dram uint64
	var hit, miss [3]float64
	hits1, miss1 := w.cacheStats()
	for i, res := range results {
		enc.Encode(res)
		enc.Encode([2][3]uint64{hits1[i], miss1[i]})
		cycles += float64(res.Cycles)
		ops += float64(res.Ops)
		ckpt += float64(res.CkptStall)
		memStall += float64(res.MemStall)
		for s := range nvm {
			nvm[s] += res.Ctrl.NVM.BytesBySource[s]
		}
		dram += res.Ctrl.DRAM.BytesWritten
		for l := 0; l < 3; l++ {
			hit[l] += float64(hits1[i][l] - hits0[i][l])
			miss[l] += float64(miss1[i][l] - miss0[i][l])
		}
	}
	w.digest0 = fmt.Sprintf("%x", h.Sum(nil)[:12])
	w.sim0 = simMetricSet(cycles, ops, ckpt, memStall, nvm, dram, hit, miss)
}

func (w *specWorkload) digest() string { return w.digest0 }

func (w *specWorkload) simMetrics(ms metricSet) {
	for k, v := range w.sim0 {
		ms[k] = v
	}
}

func (w *specWorkload) finish() (attempted, failed int, ok bool) { return 0, 0, true }

func (w *specWorkload) nvmWrites() uint64 { return w.nvm }

func (w *specWorkload) close() {
	for _, c := range w.cells {
		c.sys.Close()
	}
}
