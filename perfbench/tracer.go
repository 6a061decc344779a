package main

import (
	"sort"
	"time"

	"thynvm/internal/ctl"
	"thynvm/internal/kv"
	"thynvm/internal/mem"
	"thynvm/internal/sim"
	"thynvm/internal/trace"
)

// layer names one boundary the traced run times. The ctl layers come in
// pairs: the ThyNVM controller (internal/core) first, then the comparison
// controllers (internal/baseline).
type layer uint8

const (
	lTraceNext  layer = iota // trace.Generator.Next
	lKVTx                    // one kv.Store Get/Put/Delete
	lAccess                  // sim.Machine Read/Write (cache + cpu), or a whole RunTrace minus trace.next
	lCheckpoint              // a CheckpointIfDue call that checkpointed
	lPoll                    // a CheckpointIfDue call that did not
	lDrain                   // sim.Machine.Drain
	lTortureRun              // torture.Run of one schedule
	lCtlRead                 // ctl.Controller.ReadBlock (core, baseline)
	_
	lCtlWrite // WriteBlock
	_
	lCtlDue // CheckpointDue
	_
	lCtlBegin // BeginCheckpoint
	_
	lCtlDrain // DrainCheckpoint
	_
	nLayers
)

// sampled lists the layers whose individual span durations are kept for
// percentiles.
var sampled = [nLayers]bool{
	lKVTx: true, lCheckpoint: true, lTortureRun: true,
	lCtlBegin: true, lCtlBegin + 1: true,
}

type frame struct {
	l     layer
	start int64
	child int64
}

// tracer records nested spans around calls into each layer, from outside
// the program. A span's self time is its duration minus the time covered
// by the spans nested inside it. Spans stay in memory; only aggregates are
// reported.
type tracer struct {
	t0    time.Time
	stack []frame
	calls [nLayers]uint64
	self  [nLayers]int64
	lat   [nLayers][]int64
	// newSystem holds the durations of thynvm.NewSystem calls, in ns.
	newSystem []int64
	// flushed and flushNs count the dirty blocks checkpoints flushed and
	// the time from the poll to the end of those flushes.
	flushed uint64
	flushNs int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), stack: make([]frame, 0, 16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) begin(l layer) {
	t.stack = append(t.stack, frame{l: l, start: t.now()})
}

// relabel changes the layer of the innermost open span, for spans whose
// kind is only known once the call returns.
func (t *tracer) relabel(l layer) { t.stack[len(t.stack)-1].l = l }

func (t *tracer) end() {
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := end - f.start
	t.calls[f.l]++
	t.self[f.l] += d - f.child
	if sampled[f.l] {
		t.lat[f.l] = append(t.lat[f.l], d)
	}
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of span
// durations in nanoseconds, or 0 without samples.
func percentile(v []int64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i])
}

// tracedCtl times every call the machine makes into a memory controller.
// Methods it does not override pass straight through the embedded
// controller.
type tracedCtl struct {
	ctl.Controller
	t     *tracer
	split layer // 0 for the ThyNVM controller, 1 for a baseline
}

func (c *tracedCtl) ReadBlock(now mem.Cycle, addr uint64, buf []byte) mem.Cycle {
	c.t.begin(lCtlRead + c.split)
	done := c.Controller.ReadBlock(now, addr, buf)
	c.t.end()
	return done
}

func (c *tracedCtl) WriteBlock(now mem.Cycle, addr uint64, data []byte) mem.Cycle {
	c.t.begin(lCtlWrite + c.split)
	done := c.Controller.WriteBlock(now, addr, data)
	c.t.end()
	return done
}

func (c *tracedCtl) CheckpointDue(now mem.Cycle, cpuDirty bool) bool {
	c.t.begin(lCtlDue + c.split)
	due := c.Controller.CheckpointDue(now, cpuDirty)
	c.t.end()
	return due
}

func (c *tracedCtl) BeginCheckpoint(now mem.Cycle, cpuState []byte) mem.Cycle {
	c.t.begin(lCtlBegin + c.split)
	resume := c.Controller.BeginCheckpoint(now, cpuState)
	c.t.end()
	return resume
}

func (c *tracedCtl) DrainCheckpoint(now mem.Cycle) mem.Cycle {
	c.t.begin(lCtlDrain + c.split)
	done := c.Controller.DrainCheckpoint(now)
	c.t.end()
	return done
}

// rehost builds a machine over a timed wrapper of ctrl. The controller was
// built by thynvm.NewSystem and has not run yet, so the new machine
// simulates exactly what the system's own machine would have.
func rehost(ctrl ctl.Controller, t *tracer, isCore bool) *sim.Machine {
	split := layer(1)
	if isCore {
		split = 0
	}
	return sim.NewMachine(&tracedCtl{Controller: ctrl, t: t, split: split}, true)
}

// tracedMem times the loads and stores a KV store issues.
type tracedMem struct {
	m kv.Memory
	t *tracer
}

func (w tracedMem) Read(addr uint64, buf []byte) {
	w.t.begin(lAccess)
	w.m.Read(addr, buf)
	w.t.end()
}

func (w tracedMem) Write(addr uint64, data []byte) {
	w.t.begin(lAccess)
	w.m.Write(addr, data)
	w.t.end()
}

// tracedGen times trace generation.
type tracedGen struct {
	trace.Generator
	t *tracer
}

func (g tracedGen) Next() (trace.Op, bool) {
	g.t.begin(lTraceNext)
	op, ok := g.Generator.Next()
	g.t.end()
	return op, ok
}
