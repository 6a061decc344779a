package mem

import "testing"

// Hot-path micro-benchmarks for the backing store and device model. Run
// with `go test -bench=. -benchmem ./internal/mem` and compare against a
// baseline with benchstat (see Makefile `bench` targets).

// BenchmarkStorageWriteSeq streams block-sized writes through storage,
// the pattern of cache writebacks and checkpoint flushes.
func BenchmarkStorageWriteSeq(b *testing.B) {
	s := NewStorage()
	var buf [BlockSize]byte
	const span = 32 << 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write(uint64(i*BlockSize)%span, buf[:])
	}
}

// BenchmarkStorageReadHit re-reads blocks of a touched region: the common
// case of every simulated memory access.
func BenchmarkStorageReadHit(b *testing.B) {
	s := NewStorage()
	var buf [BlockSize]byte
	const span = 4 << 20
	for a := uint64(0); a < span; a += PageSize {
		s.Write(a, make([]byte, PageSize))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(uint64(i*37*BlockSize)%span, buf[:])
	}
}

// BenchmarkStorageReadZero reads untouched (zero) space, exercising the
// zero-fill path.
func BenchmarkStorageReadZero(b *testing.B) {
	s := NewStorage()
	var buf [PageSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Read(uint64(i)*PageSize%(1<<30), buf[:])
	}
}

// BenchmarkStorageClone deep-copies a 4 MB storage (the verification
// oracle's per-checkpoint snapshot).
func BenchmarkStorageClone(b *testing.B) {
	s := NewStorage()
	for a := uint64(0); a < 4<<20; a += PageSize {
		s.Write(a, make([]byte, PageSize))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := s.Clone()
		if c.FootprintBytes() != s.FootprintBytes() {
			b.Fatal("bad clone")
		}
	}
}

// BenchmarkDeviceReadBlock performs timed block reads against an NVM
// device with realistic bank/row-buffer state.
func BenchmarkDeviceReadBlock(b *testing.B) {
	d := NewDevice(NVMSpec())
	var buf [BlockSize]byte
	const span = 16 << 20
	now := Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = d.Read(now, uint64(i*31*BlockSize)%span, buf[:])
	}
}

// BenchmarkDeviceWriteBlock posts block writes (the posted-write queue
// path, including buffer management).
func BenchmarkDeviceWriteBlock(b *testing.B) {
	d := NewDevice(NVMSpec())
	var buf [BlockSize]byte
	const span = 16 << 20
	now := Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = d.Write(now, uint64(i*31*BlockSize)%span, buf[:], SrcCPU)
	}
}

// BenchmarkDeviceSettlePerAccess retires the posted-write queue after
// every single write — the pre-batching behavior, where each access paid
// a settle walk. Contrast with BenchmarkDeviceSettleBatch.
func BenchmarkDeviceSettlePerAccess(b *testing.B) {
	d := NewDevice(NVMSpec())
	var buf [BlockSize]byte
	const span = 16 << 20
	now := Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = d.Write(now, uint64(i*31*BlockSize)%span, buf[:], SrcCPU)
		now = d.Flush(now)
	}
}

// BenchmarkDeviceSettleBatch posts a full queue of writes and retires them
// in one settleBatch run — the batched epoch-pipeline pattern. Reported
// per write for direct comparison with BenchmarkDeviceSettlePerAccess.
func BenchmarkDeviceSettleBatch(b *testing.B) {
	d := NewDevice(NVMSpec())
	var buf [BlockSize]byte
	const span = 16 << 20
	const batch = 48 // below the queue cap, so no stall path interferes
	now := Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		for j := 0; j < batch; j++ {
			now = d.Write(now, uint64((i+j)*31*BlockSize)%span, buf[:], SrcCPU)
		}
		now = d.Flush(now)
	}
}

// BenchmarkDeviceWriteScattered posts writes whose completions arrive out
// of posting order across banks with a deep queue: every other write goes
// to a new row of bank 0, which falls ever further behind on dirty row
// misses, while the rest hit open rows on the other banks and complete
// first.
func BenchmarkDeviceWriteScattered(b *testing.B) {
	spec := NVMSpec()
	d := NewDevice(spec)
	var buf [BlockSize]byte
	stride := spec.RowBytes * uint64(spec.Banks) // next row of the same bank
	now := Cycle(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(i/2%1024) * stride // bank 0, a new row each time
		if i%2 == 1 {
			addr = spec.RowBytes*uint64(1+i/2%7) + uint64(i/14%64)*BlockSize
		}
		now = d.Write(now, addr, buf[:], SrcCPU)
	}
}

// BenchmarkDeviceForwardDeepQueue reads against a 512-deep posted-write
// queue: every read overlaps a pending block write or hits a page that
// shares its forwarding bucket (16 MiB away) without overlapping anything.
// The reads stay at cycle 0, so nothing retires and the queue stays full.
func BenchmarkDeviceForwardDeepQueue(b *testing.B) {
	d := NewDevice(NVMSpec())
	var buf [BlockSize]byte
	const alias = pendBuckets * PageSize
	addrs := make([]uint64, 512)
	for i := range addrs {
		addrs[i] = uint64(i%128)*PageSize + uint64(i/128)*BlockSize
		d.Write(0, addrs[i], buf[:], SrcCPU)
	}
	if d.PendingWrites(0) != len(addrs) {
		b.Fatalf("queue holds %d writes, want %d", d.PendingWrites(0), len(addrs))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if i%2 == 1 {
			a += alias
		}
		d.Read(0, a, buf[:])
	}
}
