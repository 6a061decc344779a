package mem

import (
	"sort"

	"thynvm/internal/obs"
)

// bank models one independently timed device bank.
//
// Both row-buffer state and occupancy are tracked separately for the read
// stream and the write stream, approximating a read-priority controller
// with write draining (as in the gem5 DRAM model the paper evaluates on):
// posted writes are batched and drained during read-idle slots, so a write
// burst neither destroys the read stream's row locality nor holds reads
// behind it; writes still serialize against each other — so checkpoint
// write-back traffic does contend with the program's own writes — and
// still pay NVM's dirty-row-miss penalty when the write stream moves to a
// new row.
type bank struct {
	readRow       int64 // open row as seen by reads; -1 when none
	writeRow      int64 // last row targeted by the write stream; -1 when none
	writeRowDirty bool  // the write row holds unwritten-back modifications
	readReadyAt   Cycle // earliest cycle the bank can begin a new read
	writeReadyAt  Cycle // earliest cycle the bank can begin draining a write
}

// pendingWrite is a posted write that has been scheduled on a bank but is
// not yet durable (its completion lies in the future). It lives in
// Device.pend at its slot index and stays put while in flight; the queues
// and forwarding chains hold only slot indices. seq is the posting order
// (1-based, unique per device): the queues are kept in completion order,
// so seq is what preserves program order wherever it is observable —
// overlapping forwards, crash replay, settle batches. next is the
// forwarding-chain link of the write's first page (see fwdNode).
type pendingWrite struct {
	addr uint64
	seq  uint64
	data []byte
	next int32
}

// queued is a FIFO entry: a posted write's completion and slot. The
// completion lives here rather than in pendingWrite so that posting and
// the durability checks of settling read only the rings, which are
// walked in order.
type queued struct {
	done Cycle
	slot int32
}

// slotFIFO is a growable ring of queued writes in completion order (ties
// in posting order). ring's length is zero or a power of two.
type slotFIFO struct {
	ring []queued
	head int
	n    int
}

func (f *slotFIFO) at(i int) queued { return f.ring[(f.head+i)&(len(f.ring)-1)] }

// readyFront is a FIFO whose front write is durable, with that write's seq.
type readyFront struct {
	seq  uint64
	fifo int
}

// A forwarding-chain reference names one page of a live write. Every write
// is chained once per page it touches, oldest write first in the page's
// bucket. The link of a write's first page is embedded in its pendingWrite
// (ref = slot+1), so a single-page write — nearly all of them — costs no
// separate node; each further page of a multi-page write takes an
// overflow node (ref = -index into Device.extra). Ref 0 ends a chain.
//
// fwdNode is an overflow node: the page it stands for and its write.
type fwdNode struct {
	page uint64 // page-aligned address
	slot int32
	next int32
}

// pendBuckets sizes the direct-mapped page-granular forwarding index.
// Power of two; 4096 buckets cover 16 MiB of distinct pages before
// aliasing, which only lengthens a chain, never hides a write.
const pendBuckets = 4096

// WriteFault intercepts a posted write before it enters the queue (fault
// injection; silent-corruption model: the device acknowledges the full
// write but durably stores something else). It may return nil to pass the
// write through untouched, or a replacement payload — typically a prefix
// (torn tail) or a bit-flipped copy of data. The replacement may alias
// data. Timing, statistics and the ack are unaffected: the hardware
// attempted the full write.
type WriteFault func(addr uint64, data []byte, src WriteSource) []byte

// ReadFault intercepts a completed read (fault injection; media model:
// the device returned data, but not the data that was stored). The hook
// sees the final payload — store contents with pending writes forwarded —
// and may mutate buf in place (bit flips, stuck values). Timing,
// statistics and stored contents are unaffected.
type ReadFault func(addr uint64, buf []byte)

// CrashFault intercepts, at Crash(at), each posted write still in flight
// (completion after the crash instant) — the writes a power failure would
// normally discard entirely. Returning nil keeps that behavior; returning
// a non-empty payload persists it instead, modeling a write that was
// partway through the device pipeline when power failed (torn persist).
// The payload may alias data (e.g. data[:k] for a torn tail).
type CrashFault func(addr uint64, data []byte) []byte

// DeviceStats aggregates traffic and timing counters for one device.
type DeviceStats struct {
	Reads        uint64
	Writes       uint64
	BytesRead    uint64
	BytesWritten uint64
	RowHits      uint64
	RowMisses    uint64
	// BytesBySource breaks write bytes down by originator (Figure 8).
	BytesBySource [NumWriteSources]uint64
}

// Device is a banked memory device with row-buffer timing, byte-accurate
// contents and a posted write queue.
//
// Reads are blocking: Read returns the completion cycle. Writes are posted:
// they occupy bank time and become durable at their completion cycle, but
// the issuer continues immediately unless the write queue is full.
// On a crash, writes that have not completed are lost; volatile devices
// additionally lose all contents.
type Device struct {
	spec  DeviceSpec
	banks []bank
	store *Storage

	// The posted-write queue is one FIFO per bank. A write joins the FIFO
	// of the bank whose access sets its completion; that bank's
	// writeReadyAt only grows until Crash empties the queue, so every FIFO
	// is already in completion order and posting and retiring are O(1).
	// The extra last FIFO holds writes that touch no bank (empty and
	// block-aligned), kept in completion order by a sift. heads[i] caches
	// the completion at the front of fifos[i] (MaxCycle when empty), so
	// settling scans one dense array. Writes sit in pend slots (stable
	// while in flight, indices recycled through freeSlot) so queue
	// maintenance moves only indices.
	fifos    []slotFIFO
	heads    []Cycle
	pend     []pendingWrite
	freeSlot []int32
	live     int          // posted writes not yet retired
	seqCtr   uint64       // posting counter; next write gets seqCtr+1
	minDone  Cycle        // earliest live completion (valid when live > 0)
	free     [][]byte     // recycled posted-write buffers, reused by WriteAt
	ready    []readyFront // scratch: FIFOs with a durable front, for settleBatch
	all      []queued     // scratch: the whole queue in posting order

	// Forwarding index: each live write is chained once per page it
	// touches in the page's direct-mapped bucket (see fwdNode), so a read
	// walks only the writes that share its pages' buckets. The buckets
	// themselves sit at the end of the struct, clear of the hot fields.
	extra     []fwdNode // overflow nodes; extra[0] is unused
	freeExtra int32     // head of the free overflow-node list (0 when empty)
	hits      []int32   // scratch: slots a read forwards from, in seq order

	stats DeviceStats

	// Fault-injection hooks (crash-torture); nil in normal operation.
	writeFault WriteFault
	crashFault CrashFault
	readFault  ReadFault

	// Telemetry: latency observations go to rec when recOn; the flag is
	// cached so the disabled path costs one branch, no interface call.
	rec       obs.Recorder
	recOn     bool
	readHist  obs.HistID
	writeHist obs.HistID
	track     obs.TrackID

	buckets [pendBuckets]struct{ head, tail int32 }
}

// NewDevice creates a device with the given spec and empty heap-backed
// contents.
func NewDevice(spec DeviceSpec) *Device {
	return NewDeviceStorage(spec, NewStorage())
}

// NewDeviceStorage creates a device whose contents live in store — a heap
// storage, or an mmap-backed one from NewBackedStorage.
func NewDeviceStorage(spec DeviceSpec, store *Storage) *Device {
	if spec.Banks <= 0 {
		spec.Banks = 1
	}
	if spec.RowBytes == 0 {
		spec.RowBytes = 8 * 1024
	}
	if spec.WriteQueueCap <= 0 {
		spec.WriteQueueCap = 64
	}
	d := &Device{
		spec:  spec,
		banks: make([]bank, spec.Banks),
		store: store,
		fifos: make([]slotFIFO, spec.Banks+1),
		heads: make([]Cycle, spec.Banks+1),
		extra: make([]fwdNode, 1),
	}
	for i := range d.heads {
		d.heads[i] = MaxCycle
	}
	for i := range d.banks {
		d.banks[i].readRow = -1
		d.banks[i].writeRow = -1
	}
	return d
}

// Spec returns the device's timing specification.
func (d *Device) Spec() DeviceSpec { return d.spec }

// Storage returns the device's backing store (for backend-level operations
// such as Sync, Snapshot and Close on mmap-backed devices).
func (d *Device) Storage() *Storage { return d.store }

// SetRecorder attaches a telemetry recorder; read and write access
// latencies are observed into the given histograms. Passing nil (or a
// recorder whose Enabled is false) detaches instrumentation entirely.
func (d *Device) SetRecorder(r obs.Recorder, readHist, writeHist obs.HistID) {
	d.rec = r
	d.recOn = r != nil && r.Enabled()
	d.readHist, d.writeHist = readHist, writeHist
	d.track = obs.TrackNVM
	if readHist == obs.HistDRAMRead {
		d.track = obs.TrackDRAM
	}
}

// SetWriteFault installs (or, with nil, removes) a silent-corruption fault
// hook applied to every subsequent posted write.
func (d *Device) SetWriteFault(f WriteFault) { d.writeFault = f }

// SetCrashFault installs (or, with nil, removes) a torn-persist fault hook
// consulted at Crash for writes still in flight.
func (d *Device) SetCrashFault(f CrashFault) { d.crashFault = f }

// SetReadFault installs (or, with nil, removes) a media-error fault hook
// applied to every subsequent timed read's payload.
func (d *Device) SetReadFault(f ReadFault) { d.readFault = f }

// Stats returns a copy of the device's counters.
func (d *Device) Stats() DeviceStats { return d.stats }

// ResetStats zeroes the counters without touching contents or timing state.
func (d *Device) ResetStats() { d.stats = DeviceStats{} }

func (d *Device) bankIndex(addr uint64) (int, int64) {
	row := int64(addr / d.spec.RowBytes)
	return int(uint64(row) % uint64(len(d.banks))), row
}

// access performs one timed bank access covering [addr, addr+n) and returns
// when it completes and on which bank. The caller guarantees the range
// stays within one block.
func (d *Device) access(now Cycle, addr uint64, write bool) (done Cycle, bi int) {
	bi, row := d.bankIndex(addr)
	b := &d.banks[bi]
	ready := b.readReadyAt
	if write {
		ready = b.writeReadyAt
	}
	start := maxCycle(now, ready)
	var lat Cycle
	if write {
		if b.writeRow == row {
			lat = d.spec.RowHit
			d.stats.RowHits++
		} else {
			if b.writeRowDirty {
				lat = d.spec.RowMissDirty
			} else {
				lat = d.spec.RowMissClean
			}
			d.stats.RowMisses++
			b.writeRow = row
			b.writeRowDirty = false
		}
		b.writeRowDirty = true
	} else {
		if b.readRow == row {
			lat = d.spec.RowHit
			d.stats.RowHits++
		} else {
			lat = d.spec.RowMissClean
			d.stats.RowMisses++
			b.readRow = row
		}
	}
	done = start + lat
	if write {
		b.writeReadyAt = done
	} else {
		b.readReadyAt = done
	}
	return done, bi
}

// settle applies every pending write that has completed by cycle now.
//
// The minDone fast path skips the queue entirely while no completion has
// been reached — the overwhelmingly common case, since callers settle on
// every access but writes take hundreds of cycles to drain. Skipping is
// unobservable: reads forward pending data over stored bytes (same result
// as applying eagerly). The heavy lifting lives out of line in settleBatch
// so this wrapper stays within the inline budget of its hot callers.
//
//thynvm:hotpath
func (d *Device) settle(now Cycle) {
	if d.live == 0 || now < d.minDone {
		return
	}
	d.settleBatch(now)
}

// settleBatch retires every write durable by now. Each FIFO is completion
// ordered, so those writes are FIFO prefixes; they are merged by seq and
// applied to the store in posting order, which keeps store contents
// byte-identical even when completion order inverts posting order across
// banks. Bank FIFOs are also in posting order, so the merge needs only
// their fronts: ready lists the FIFOs with a durable front, sorted by the
// front's seq, and a FIFO whose next write is durable too moves back to
// its place. The new watermark is the earliest completion still live.
//
//thynvm:hotpath
func (d *Device) settleBatch(now Cycle) {
	ready := d.ready[:0]
	next := MaxCycle
	for fi, hd := range d.heads {
		f := &d.fifos[fi]
		if hd > now || f.n == 0 {
			next = min(next, hd)
			continue
		}
		r := readyFront{seq: d.pend[f.ring[f.head].slot].seq, fifo: fi}
		ready = append(ready, r)
		j := len(ready) - 1
		for ; j > 0 && ready[j-1].seq > r.seq; j-- {
			ready[j] = ready[j-1]
		}
		ready[j] = r
	}
	for i := 0; i < len(ready); {
		fi := ready[i].fifo
		f := &d.fifos[fi]
		slot := f.ring[f.head].slot
		f.head = (f.head + 1) & (len(f.ring) - 1)
		f.n--
		d.store.Write(d.pend[slot].addr, d.pend[slot].data)
		d.retire(slot)
		d.live--
		if f.n > 0 && f.ring[f.head].done <= now {
			// Still ready: move the FIFO back to its place by its new front.
			r := readyFront{seq: d.pend[f.ring[f.head].slot].seq, fifo: fi}
			j := i
			for ; j+1 < len(ready) && ready[j+1].seq < r.seq; j++ {
				ready[j] = ready[j+1]
			}
			ready[j] = r
			continue
		}
		// heads[fi] went stale while fi was ready; refresh it as it leaves.
		d.heads[fi] = MaxCycle
		if f.n > 0 {
			d.heads[fi] = f.ring[f.head].done
		}
		next = min(next, d.heads[fi])
		i++
	}
	d.ready = ready
	d.minDone = next
}

// retire releases a write leaving the queue: its forwarding nodes, its
// payload buffer and its slot. The caller has already taken it off its
// FIFO and decided what reaches the store.
//
//thynvm:hotpath
func (d *Device) retire(slot int32) {
	d.unlink(slot)
	d.recycle(d.pend[slot].data)
	d.freeSlot = append(d.freeSlot, slot)
}

// enqueue appends q to FIFO fi. Bank FIFOs are already in completion
// order, so the sift loop exits at once; only the bankless FIFO can take
// a write that completes before its tail.
//
//thynvm:hotpath
func (d *Device) enqueue(fi int, q queued) {
	f := &d.fifos[fi]
	if f.n == len(f.ring) {
		// Doubling by appending a copy of the ring keeps every live entry
		// at its position modulo the new length, so head stays valid.
		f.ring = append(f.ring, f.ring...)
		if len(f.ring) == 0 {
			f.ring = append(f.ring, queued{})
		}
	}
	mask := len(f.ring) - 1
	i := f.n
	for ; i > 0; i-- {
		prev := f.ring[(f.head+i-1)&mask]
		if prev.done <= q.done {
			break
		}
		f.ring[(f.head+i)&mask] = prev
	}
	f.ring[(f.head+i)&mask] = q
	f.n++
	if i == 0 {
		d.heads[fi] = q.done
	}
}

// follow resolves forwarding-chain reference r to its write's slot, the
// page it stands for, and its outgoing link.
//
//thynvm:hotpath
func (d *Device) follow(r int32) (slot int32, page uint64, next *int32) {
	if r > 0 {
		w := &d.pend[r-1]
		return r - 1, PageAlign(w.addr), &w.next
	}
	nd := &d.extra[-r]
	return nd.slot, nd.page, &nd.next
}

// link threads a freshly posted write into the forwarding chain of every
// page it touches.
//
//thynvm:hotpath
func (d *Device) link(slot int32) {
	w := &d.pend[slot]
	first := PageAlign(w.addr)
	for p := first; p < w.addr+uint64(len(w.data)); p += PageSize {
		r := slot + 1
		if p != first {
			i := d.freeExtra
			if i != 0 {
				d.freeExtra = d.extra[i].next
			} else {
				i = int32(len(d.extra))
				d.extra = append(d.extra, fwdNode{})
			}
			d.extra[i] = fwdNode{page: p, slot: slot}
			r = -i
		}
		b := &d.buckets[(p/PageSize)&(pendBuckets-1)]
		if b.tail != 0 {
			_, _, next := d.follow(b.tail)
			*next = r
		} else {
			b.head = r
		}
		b.tail = r
	}
}

// unlink removes a leaving write from its chains; it must mirror link
// exactly. Writes mostly leave oldest first, so the reference sought is
// usually at the head of its chain.
//
//thynvm:hotpath
func (d *Device) unlink(slot int32) {
	w := &d.pend[slot]
	for p := PageAlign(w.addr); p < w.addr+uint64(len(w.data)); p += PageSize {
		b := &d.buckets[(p/PageSize)&(pendBuckets-1)]
		link, prev, r := &b.head, int32(0), b.head
		for {
			s, pg, next := d.follow(r)
			if s == slot && pg == p {
				*link = *next
				if b.tail == r {
					b.tail = prev
				}
				if r < 0 {
					*next = d.freeExtra
					d.freeExtra = -r
				}
				break
			}
			link, prev, r = next, r, *next
		}
	}
}

// recycle returns a drained posted-write buffer to the free list for reuse.
func (d *Device) recycle(buf []byte) {
	if len(d.free) < d.spec.WriteQueueCap {
		d.free = append(d.free, buf)
	}
}

// getBuf returns a buffer of length n, reusing a recycled one when a recent
// free-list entry is large enough. Posted-write sizes cluster (block-sized
// CPU writes, page-sized checkpoint writebacks), so checking the tail of
// the LIFO free list almost always hits.
func (d *Device) getBuf(n int) []byte {
	stop := len(d.free) - 4
	if stop < 0 {
		stop = 0
	}
	for i := len(d.free) - 1; i >= stop; i-- {
		if cap(d.free[i]) >= n {
			b := d.free[i][:n]
			if i == len(d.free)-1 {
				d.free = d.free[:i]
			} else {
				d.free = append(d.free[:i], d.free[i+1:]...)
			}
			return b
		}
	}
	return make([]byte, n)
}

// Read performs a blocking read of len(buf) bytes at addr and returns the
// completion cycle. Data still in the posted write queue is forwarded.
//
//thynvm:hotpath
func (d *Device) Read(now Cycle, addr uint64, buf []byte) Cycle {
	d.settle(now)
	done := now
	// One bank access per touched block.
	for a := BlockAlign(addr); a < addr+uint64(len(buf)); a += BlockSize {
		if c, _ := d.access(now, a, false); c > done {
			done = c
		}
	}
	d.store.Read(addr, buf)
	d.forwardPending(addr, buf)
	if d.readFault != nil {
		d.readFault(addr, buf)
	}
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(buf))
	if d.recOn {
		d.rec.Latency(d.readHist, uint64(done-now))
	}
	return done
}

// ReadBackground performs a low-priority read of len(buf) bytes at addr:
// checkpointing, migration and consolidation transfers that a real
// controller schedules into otherwise-idle device slots, behind demand
// reads. It occupies the bank's background (write-drain) port, so it
// contends with writes and other background work but never delays demand
// reads; it does not disturb the demand-read row state.
func (d *Device) ReadBackground(now Cycle, addr uint64, buf []byte) Cycle {
	d.settle(now)
	done := now
	for a := BlockAlign(addr); a < addr+uint64(len(buf)); a += BlockSize {
		bi, row := d.bankIndex(a)
		b := &d.banks[bi]
		start := maxCycle(now, b.writeReadyAt)
		lat := d.spec.RowMissClean
		if row == b.readRow || row == b.writeRow {
			lat = d.spec.RowHit
			d.stats.RowHits++
		} else {
			d.stats.RowMisses++
		}
		c := start + lat
		b.writeReadyAt = c
		if c > done {
			done = c
		}
	}
	d.store.Read(addr, buf)
	d.forwardPending(addr, buf)
	if d.readFault != nil {
		d.readFault(addr, buf)
	}
	d.stats.Reads++
	d.stats.BytesRead += uint64(len(buf))
	if d.recOn {
		d.rec.Latency(d.readHist, uint64(done-now))
	}
	return done
}

// forwardPending overlays still-queued write data onto buf, newest write
// last so it wins where writes overlap. It walks the forwarding chain of
// each page the read touches; a write spanning several of those pages is
// taken once, at the page where its overlap with the read begins. Each
// chain is oldest first, so a read within one page gathers its overlaps
// already in seq order; a multi-page read merges its pages' runs.
//
//thynvm:hotpath
func (d *Device) forwardPending(addr uint64, buf []byte) {
	if d.live == 0 {
		return
	}
	end := addr + uint64(len(buf))
	hits := d.hits[:0]
	for p := PageAlign(addr); p < end; p += PageSize {
		for r := d.buckets[(p/PageSize)&(pendBuckets-1)].head; r != 0; {
			slot, page, next := d.follow(r)
			r = *next
			if page != p {
				continue // an aliased page sharing the bucket
			}
			w := &d.pend[slot]
			if w.addr >= end || addr >= w.addr+uint64(len(w.data)) || PageAlign(max(w.addr, addr)) != p {
				continue
			}
			hits = append(hits, slot)
		}
	}
	// Insertion sort by seq: free when the hits came from one chain.
	for i := 1; i < len(hits); i++ {
		s := hits[i]
		j := i
		for ; j > 0 && d.pend[hits[j-1]].seq > d.pend[s].seq; j-- {
			hits[j] = hits[j-1]
		}
		hits[j] = s
	}
	for _, s := range hits {
		forward(addr, buf, d.pend[s].addr, d.pend[s].data)
	}
	d.hits = hits
}

// forward overlays src data (at srcAddr) onto dst (at dstAddr) where the
// two ranges overlap.
func forward(dstAddr uint64, dst []byte, srcAddr uint64, src []byte) {
	lo := dstAddr
	if srcAddr > lo {
		lo = srcAddr
	}
	hi := dstAddr + uint64(len(dst))
	if e := srcAddr + uint64(len(src)); e < hi {
		hi = e
	}
	if lo >= hi {
		return
	}
	copy(dst[lo-dstAddr:hi-dstAddr], src[lo-srcAddr:hi-srcAddr])
}

// Write posts a write of data at addr, tagged with its traffic source.
// It returns the cycle at which the issuer may proceed: normally now, or
// later if the write queue was full and the issuer had to stall for the
// oldest write to drain. The write becomes durable at its (internal)
// completion cycle; Flush exposes that instant.
func (d *Device) Write(now Cycle, addr uint64, data []byte, src WriteSource) (ack Cycle) {
	ack, _ = d.WriteAt(now, now, addr, data, src)
	return ack
}

// WriteWithCompletion posts a write like Write and additionally reports the
// cycle at which it becomes durable. Checkpointing code uses the completion
// to order its commit record after the data it covers.
func (d *Device) WriteWithCompletion(now Cycle, addr uint64, data []byte, src WriteSource) (ack, done Cycle) {
	return d.WriteAt(now, now, addr, data, src)
}

// WriteAt posts a write at wall-clock cycle now that may not issue to the
// banks before issueAt. The distinction matters for background work: a
// checkpoint commit record is posted while the processor is at `now` but
// must not reach the device before the data it covers (`issueAt`). Wall
// clock drives the settle and queue-occupancy logic — a write scheduled in
// the future must stay in the pending queue so that a crash before its
// completion still discards it.
func (d *Device) WriteAt(now, issueAt Cycle, addr uint64, data []byte, src WriteSource) (ack, done Cycle) {
	d.settle(now)
	ack = now
	if d.live >= d.spec.WriteQueueCap {
		// Stall until the oldest outstanding write completes.
		if d.minDone > ack {
			ack = d.minDone
		}
		d.settle(ack)
		if d.recOn && ack > now {
			// Queue-full backpressure, visible on the device's own track.
			d.rec.BeginSpan(d.track, uint64(now), obs.SpanStall, obs.CauseQueueFull, addr)
			d.rec.EndSpan(d.track, uint64(ack))
		}
	}
	start := ack
	if issueAt > start {
		start = issueAt
	}
	done = start
	fi := len(d.banks) // the bankless FIFO, unless an access sets done
	for a := BlockAlign(addr); a < addr+uint64(len(data)); a += BlockSize {
		if c, bi := d.access(start, a, true); c >= done {
			done, fi = c, bi
		}
	}
	cp := d.getBuf(len(data))
	copy(cp, data)
	if d.writeFault != nil {
		if alt := d.writeFault(addr, cp, src); alt != nil {
			cp = alt
		}
	}
	// Park the payload and its metadata in a stable slot, then queue the
	// slot on its bank's FIFO and thread it into the forwarding chains.
	d.seqCtr++
	w := pendingWrite{addr: addr, seq: d.seqCtr, data: cp}
	var slot int32
	if k := len(d.freeSlot) - 1; k >= 0 {
		slot = d.freeSlot[k]
		d.freeSlot = d.freeSlot[:k]
		d.pend[slot] = w
	} else {
		slot = int32(len(d.pend))
		d.pend = append(d.pend, w)
	}
	d.enqueue(fi, queued{done: done, slot: slot})
	if d.live == 0 || done < d.minDone {
		d.minDone = done
	}
	d.live++
	d.link(slot)
	d.stats.Writes++
	d.stats.BytesWritten += uint64(len(data))
	if src >= 0 && src < NumWriteSources {
		d.stats.BytesBySource[src] += uint64(len(data))
	}
	if d.recOn {
		// Post-to-durable latency, including any queue-full stall and
		// deferred issue.
		d.rec.Latency(d.writeHist, uint64(done-now))
	}
	return ack, done
}

// Flush blocks until every posted write is durable and returns that cycle.
func (d *Device) Flush(now Cycle) Cycle {
	done := d.MaxPendingDone(now)
	d.settle(done)
	return done
}

// MaxPendingDone returns the completion cycle of the latest outstanding
// posted write, or now if none. Checkpointing uses it to order its commit
// record after the whole write queue (the paper's "flush the NVM write
// queue" step) without stalling the issuer. Each FIFO is completion
// ordered, so only their tails are read.
func (d *Device) MaxPendingDone(now Cycle) Cycle {
	latest := now
	for fi := range d.fifos {
		if f := &d.fifos[fi]; f.n > 0 {
			latest = max(latest, f.at(f.n-1).done)
		}
	}
	return latest
}

// PendingWrites reports how many posted writes are not yet durable at now.
func (d *Device) PendingWrites(now Cycle) int {
	d.settle(now)
	return d.live
}

// livePostingOrder gathers the whole queue in posting (seq) order, for the
// paths that replay all of it.
func (d *Device) livePostingOrder() []queued {
	all := d.all[:0]
	for fi := range d.fifos {
		f := &d.fifos[fi]
		for i := range f.n {
			all = append(all, f.at(i))
		}
	}
	sort.Slice(all, func(i, j int) bool { return d.pend[all[i].slot].seq < d.pend[all[j].slot].seq })
	d.all = all
	return all
}

// Crash models a power failure at cycle at: posted writes that have not
// completed are lost, and volatile devices lose all contents. Bank timing
// state resets (rows closed).
func (d *Device) Crash(at Cycle) {
	// Apply writes durable by the crash instant in posting order (same-
	// address writes serialize on the same bank, so posting order matches
	// durability order there), drop the rest. Torn-persist injectors
	// depend on seeing in-flight writes in the order they were posted.
	for _, q := range d.livePostingOrder() {
		w := &d.pend[q.slot]
		if q.done <= at {
			d.store.Write(w.addr, w.data)
		} else if d.crashFault != nil {
			// In flight at the crash instant: normally lost outright, but a
			// torn-persist injector may keep a partial/corrupted payload.
			if keep := d.crashFault(w.addr, w.data); len(keep) > 0 {
				d.store.Write(w.addr, keep)
			}
		}
		d.retire(q.slot)
	}
	d.live = 0
	for fi := range d.fifos {
		d.fifos[fi].head, d.fifos[fi].n = 0, 0
		d.heads[fi] = MaxCycle
	}
	if d.spec.Volatile {
		d.store.Clear()
	}
	for i := range d.banks {
		d.banks[i] = bank{readRow: -1, writeRow: -1}
	}
}

// Peek reads contents as they would be after all posted writes drain,
// without advancing time. It is intended for debugging and verification.
func (d *Device) Peek(addr uint64, buf []byte) {
	d.store.Read(addr, buf)
	d.forwardPending(addr, buf)
}

// Poke writes contents directly, bypassing timing. It is intended for
// test setup and recovery bootstrapping (e.g. pre-loading images).
func (d *Device) Poke(addr uint64, data []byte) {
	d.store.Write(addr, data)
}

// DurableSnapshot returns a deep copy of the durable contents only
// (posted-but-incomplete writes excluded), as a crash at `at` would leave
// them. The device itself is not modified.
func (d *Device) DurableSnapshot(at Cycle) *Storage {
	s := d.store.Clone()
	// Replay the writes durable by then in posting order, as settle would,
	// without disturbing the device.
	for _, q := range d.livePostingOrder() {
		if q.done <= at {
			s.Write(d.pend[q.slot].addr, d.pend[q.slot].data)
		}
	}
	return s
}

// BusyUntil returns the latest cycle at which any bank is still busy; used
// by drivers to account device occupancy.
func (d *Device) BusyUntil() Cycle {
	var m Cycle
	for i := range d.banks {
		if d.banks[i].readReadyAt > m {
			m = d.banks[i].readReadyAt
		}
		if d.banks[i].writeReadyAt > m {
			m = d.banks[i].writeReadyAt
		}
	}
	return m
}
