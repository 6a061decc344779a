package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// refDevice is the reference for the differential test below: the
// device's bank timing with a single posted-write queue kept sorted by
// completion cycle (a sifted insert per post, prefix pops per settle, a
// seq sort per batch) and forwarding by a scan of the whole queue. It is
// the most direct statement of the queue's contract; the per-bank FIFOs
// and forwarding chains of Device must be indistinguishable from it.
type refPending struct {
	addr uint64
	done Cycle
	seq  uint64
	data []byte
}

type refDevice struct {
	spec       DeviceSpec
	banks      []bank
	store      *Storage
	pq         []refPending // sorted by done, ties in posting order
	seqCtr     uint64
	stats      DeviceStats
	writeFault WriteFault
	crashFault CrashFault
}

func newRefDevice(spec DeviceSpec) *refDevice {
	d := &refDevice{spec: spec, banks: make([]bank, spec.Banks), store: NewStorage()}
	for i := range d.banks {
		d.banks[i] = bank{readRow: -1, writeRow: -1}
	}
	return d
}

func (d *refDevice) bankOf(addr uint64) (*bank, int64) {
	row := int64(addr / d.spec.RowBytes)
	return &d.banks[uint64(row)%uint64(len(d.banks))], row
}

func (d *refDevice) access(now Cycle, addr uint64, write bool) Cycle {
	b, row := d.bankOf(addr)
	ready := b.readReadyAt
	if write {
		ready = b.writeReadyAt
	}
	start := maxCycle(now, ready)
	var lat Cycle
	switch {
	case write && b.writeRow == row, !write && b.readRow == row:
		lat = d.spec.RowHit
		d.stats.RowHits++
	case write:
		lat = d.spec.RowMissClean
		if b.writeRowDirty {
			lat = d.spec.RowMissDirty
		}
		d.stats.RowMisses++
		b.writeRow = row
	default:
		lat = d.spec.RowMissClean
		d.stats.RowMisses++
		b.readRow = row
	}
	if write {
		b.writeRowDirty = true
		b.writeReadyAt = start + lat
	} else {
		b.readReadyAt = start + lat
	}
	return start + lat
}

// settle applies, in posting order, every write durable by now.
func (d *refDevice) settle(now Cycle) {
	end := 0
	for end < len(d.pq) && d.pq[end].done <= now {
		end++
	}
	batch := d.pq[:end]
	sort.SliceStable(batch, func(i, j int) bool { return batch[i].seq < batch[j].seq })
	for _, p := range batch {
		d.store.Write(p.addr, p.data)
	}
	d.pq = append(d.pq[:0], d.pq[end:]...)
}

func (d *refDevice) forward(addr uint64, buf []byte) {
	var hits []refPending
	for _, p := range d.pq {
		if p.addr < addr+uint64(len(buf)) && addr < p.addr+uint64(len(p.data)) {
			hits = append(hits, p)
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].seq < hits[j].seq })
	for _, p := range hits {
		forward(addr, buf, p.addr, p.data)
	}
}

func (d *refDevice) Read(now Cycle, addr uint64, buf []byte) Cycle {
	d.settle(now)
	done := now
	for a := BlockAlign(addr); a < addr+uint64(len(buf)); a += BlockSize {
		done = max(done, d.access(now, a, false))
	}
	d.store.Read(addr, buf)
	d.forward(addr, buf)
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(buf))
	return done
}

func (d *refDevice) ReadBackground(now Cycle, addr uint64, buf []byte) Cycle {
	d.settle(now)
	done := now
	for a := BlockAlign(addr); a < addr+uint64(len(buf)); a += BlockSize {
		b, row := d.bankOf(a)
		lat := d.spec.RowMissClean
		if row == b.readRow || row == b.writeRow {
			lat = d.spec.RowHit
			d.stats.RowHits++
		} else {
			d.stats.RowMisses++
		}
		b.writeReadyAt = maxCycle(now, b.writeReadyAt) + lat
		done = max(done, b.writeReadyAt)
	}
	d.store.Read(addr, buf)
	d.forward(addr, buf)
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(buf))
	return done
}

func (d *refDevice) WriteAt(now, issueAt Cycle, addr uint64, data []byte, src WriteSource) (ack, done Cycle) {
	d.settle(now)
	ack = now
	if len(d.pq) >= d.spec.WriteQueueCap {
		ack = max(ack, d.pq[0].done)
		d.settle(ack)
	}
	start := max(ack, issueAt)
	done = start
	for a := BlockAlign(addr); a < addr+uint64(len(data)); a += BlockSize {
		done = max(done, d.access(start, a, true))
	}
	cp := append([]byte(nil), data...)
	if d.writeFault != nil {
		if alt := d.writeFault(addr, cp, src); alt != nil {
			cp = alt
		}
	}
	d.seqCtr++
	p := refPending{addr: addr, done: done, seq: d.seqCtr, data: cp}
	i := sort.Search(len(d.pq), func(i int) bool { return d.pq[i].done > done })
	d.pq = append(d.pq, refPending{})
	copy(d.pq[i+1:], d.pq[i:])
	d.pq[i] = p
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(data))
	d.stats.BytesBySource[src] += uint64(len(data))
	return ack, done
}

func (d *refDevice) MaxPendingDone(now Cycle) Cycle {
	if n := len(d.pq); n > 0 && d.pq[n-1].done > now {
		return d.pq[n-1].done
	}
	return now
}

func (d *refDevice) Flush(now Cycle) Cycle {
	done := d.MaxPendingDone(now)
	d.settle(done)
	return done
}

func (d *refDevice) PendingWrites(now Cycle) int {
	d.settle(now)
	return len(d.pq)
}

func (d *refDevice) livePostingOrder() []refPending {
	live := append([]refPending(nil), d.pq...)
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	return live
}

func (d *refDevice) Crash(at Cycle) {
	for _, p := range d.livePostingOrder() {
		if p.done <= at {
			d.store.Write(p.addr, p.data)
		} else if d.crashFault != nil {
			if keep := d.crashFault(p.addr, p.data); len(keep) > 0 {
				d.store.Write(p.addr, keep)
			}
		}
	}
	d.pq = d.pq[:0]
	if d.spec.Volatile {
		d.store.Clear()
	}
	for i := range d.banks {
		d.banks[i] = bank{readRow: -1, writeRow: -1}
	}
}

func (d *refDevice) Peek(addr uint64, buf []byte) {
	d.store.Read(addr, buf)
	d.forward(addr, buf)
}

func (d *refDevice) DurableSnapshot(at Cycle) *Storage {
	s := d.store.Clone()
	for _, p := range d.livePostingOrder() {
		if p.done <= at {
			s.Write(p.addr, p.data)
		}
	}
	return s
}

// diffDevices drives a Device and the reference with the same seeded mix
// of posts (block, multi-row, multi-page blob, unaligned, empty, aliased
// 16 MiB apart, with issueAt in the future), reads, background reads,
// peeks, flushes, snapshots and crashes, and fails on the first
// observable difference: returned cycles, read bytes, stored contents
// after every settle, MaxPendingDone, PendingWrites, statistics, durable
// snapshots, and the order and payloads a recording CrashFault sees.
func diffDevices(t *testing.T, spec DeviceSpec, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got, ref := NewDeviceStorage(spec, NewStorage()), newRefDevice(spec)
	var gotLog, refLog []string
	tear := func(log *[]string) CrashFault {
		return func(addr uint64, data []byte) []byte {
			*log = append(*log, fmt.Sprintf("%#x %x", addr, data))
			switch {
			case len(data) == 0 || addr%3 == 0:
				return nil
			default:
				return data[:1+int(addr)%len(data)]
			}
		}
	}
	got.SetCrashFault(tear(&gotLog))
	ref.crashFault = tear(&refLog)
	if seed%2 == 0 {
		flip := func(addr uint64, data []byte, _ WriteSource) []byte {
			if addr%7 == 0 && len(data) > 0 {
				data[0] ^= 0xff
				return data[:len(data)-len(data)/4]
			}
			return nil
		}
		got.SetWriteFault(flip)
		ref.writeFault = flip
	}

	// Pages 4096 apart share a forwarding bucket; spread the touched
	// addresses over a few aliasing regions so chains mix pages.
	const alias = pendBuckets * PageSize
	var touched []uint64 // pages written so far, in first-touch order
	seen := map[uint64]bool{}
	touch := func(addr uint64, n int) {
		for p := PageAlign(addr); p < addr+uint64(n); p += PageSize {
			if !seen[p] {
				seen[p] = true
				touched = append(touched, p)
			}
		}
	}
	gp, rp := make([]byte, PageSize), make([]byte, PageSize)
	sameStores := func(gs, rs *Storage) bool {
		for _, p := range touched {
			gs.Read(p, gp)
			rs.Read(p, rp)
			if !bytes.Equal(gp, rp) {
				return false
			}
		}
		return true
	}
	// Odd seeds keep each region to a few pages, so multi-page writes and
	// reads overlap densely.
	width := 96 * 1024
	if seed%2 == 1 {
		width = 5 * PageSize
	}
	pick := func() uint64 {
		region := uint64(rng.Intn(3)) * alias
		return region + uint64(rng.Intn(width))
	}
	size := func() int {
		switch k := rng.Intn(20); {
		case k < 10:
			return BlockSize
		case k < 14:
			return 1 + rng.Intn(BlockSize)
		case k < 16:
			return PageSize
		case k < 18:
			return PageSize + rng.Intn(3*PageSize) // several pages, several rows
		case k < 19:
			return int(spec.RowBytes) + rng.Intn(2*int(spec.RowBytes))
		default:
			return 0
		}
	}
	var now Cycle
	for op := 0; op < ops; op++ {
		addr := pick()
		n := size()
		what := ""
		switch k := rng.Intn(100); {
		case k < 45:
			what = "write"
			if n == 0 && rng.Intn(2) == 0 {
				addr = BlockAlign(addr) // a write that touches no bank
			}
			data := make([]byte, n)
			rng.Read(data)
			issueAt := now
			if rng.Intn(4) == 0 {
				issueAt += Cycle(rng.Intn(5000))
			}
			src := WriteSource(rng.Intn(int(NumWriteSources)))
			ag, dg := got.WriteAt(now, issueAt, addr, data, src)
			ar, dr := ref.WriteAt(now, issueAt, addr, data, src)
			if ag != ar || dg != dr {
				t.Fatalf("op %d WriteAt(%d, %d, %#x, %d) = (%d, %d), reference (%d, %d)", op, now, issueAt, addr, n, ag, dg, ar, dr)
			}
			touch(addr, n)
			if rng.Intn(2) == 0 {
				now = ag
			}
		case k < 70, k < 80:
			what = "read"
			n = max(n, 1)
			g, r := make([]byte, n), make([]byte, n)
			var dg, dr Cycle
			if k < 70 {
				dg, dr = got.Read(now, addr, g), ref.Read(now, addr, r)
			} else {
				dg, dr = got.ReadBackground(now, addr, g), ref.ReadBackground(now, addr, r)
			}
			if dg != dr || !bytes.Equal(g, r) {
				t.Fatalf("op %d read(%d, %#x, %d) = %d, reference %d (bytes equal: %v)", op, now, addr, n, dg, dr, bytes.Equal(g, r))
			}
			if rng.Intn(2) == 0 {
				now = dg
			}
		case k < 86:
			what = "peek"
			n = max(n, 1)
			g, r := make([]byte, n), make([]byte, n)
			got.Peek(addr, g)
			ref.Peek(addr, r)
			if !bytes.Equal(g, r) {
				t.Fatalf("op %d Peek(%#x, %d) differs from reference", op, addr, n)
			}
		case k < 90:
			what = "pending"
			at := now + Cycle(rng.Intn(3000))
			if g, r := got.MaxPendingDone(at), ref.MaxPendingDone(at); g != r {
				t.Fatalf("op %d MaxPendingDone(%d) = %d, reference %d", op, at, g, r)
			}
			if g, r := got.PendingWrites(at), ref.PendingWrites(at); g != r {
				t.Fatalf("op %d PendingWrites(%d) = %d, reference %d", op, at, g, r)
			}
		case k < 93:
			what = "snapshot"
			at := now + Cycle(rng.Intn(3000))
			if !sameStores(got.DurableSnapshot(at), ref.DurableSnapshot(at)) {
				t.Fatalf("op %d DurableSnapshot(%d) differs from reference", op, at)
			}
		case k < 96:
			what = "flush"
			g, r := got.Flush(now), ref.Flush(now)
			if g != r {
				t.Fatalf("op %d Flush(%d) = %d, reference %d", op, now, g, r)
			}
			now = g
		case k < 98:
			what = "crash"
			at := now + Cycle(rng.Intn(2000))
			got.Crash(at)
			ref.Crash(at)
			if len(gotLog) != len(refLog) {
				t.Fatalf("op %d Crash(%d): CrashFault saw %d writes, reference %d", op, at, len(gotLog), len(refLog))
			}
			for i := range gotLog {
				if gotLog[i] != refLog[i] {
					t.Fatalf("op %d Crash(%d): CrashFault call %d = %s, reference %s", op, at, i, gotLog[i], refLog[i])
				}
			}
		default:
			what = "time"
			now += Cycle(rng.Intn(20000))
		}
		now += Cycle(rng.Intn(40))
		if g, r := got.Stats(), ref.stats; g != r {
			t.Fatalf("op %d (%s): stats %+v, reference %+v", op, what, g, r)
		}
		// Every op settles; compare the stores after every few, and after
		// every op that retires the whole queue.
		if (op%8 == 0 || what == "flush" || what == "crash") && !sameStores(got.store, ref.store) {
			t.Fatalf("op %d (%s): stored contents differ from reference", op, what)
		}
	}
	if !sameStores(got.store, ref.store) {
		t.Fatalf("stored contents differ from reference at the end")
	}
}

func TestDeviceMatchesReference(t *testing.T) {
	small := NVMSpec()
	small.WriteQueueCap = 8 // queue-full stalls on most bursts
	volatile := DRAMSpec()
	volatile.WriteQueueCap = 32
	fast := NVMSpec()
	fast.RowHit, fast.RowMissClean, fast.RowMissDirty = 0, 1, 1 // zero-latency hits: completion ties
	specs := map[string]DeviceSpec{"nvm": NVMSpec(), "nvm-q8": small, "dram-q32": volatile, "zero-hit": fast}
	for name, spec := range specs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				diffDevices(t, spec, seed, 3000)
			})
		}
	}
}
