package thynvm_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"thynvm"
)

func smallOpts() thynvm.Options {
	return thynvm.Options{
		PhysBytes:  8 << 20,
		EpochLen:   50 * time.Microsecond,
		BTTEntries: 512,
		PTTEntries: 256,
	}
}

func TestNewSystemAllKinds(t *testing.T) {
	for _, k := range thynvm.AllSystems() {
		sys, err := thynvm.NewSystem(k, smallOpts())
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		sys.Write(4096, []byte("abc"))
		got := make([]byte, 3)
		sys.Read(4096, got)
		if string(got) != "abc" {
			t.Errorf("%s: round trip failed", k)
		}
	}
}

func TestParseSystem(t *testing.T) {
	for _, k := range thynvm.AllSystems() {
		got, err := thynvm.ParseSystem(k.String())
		if err != nil || got != k {
			t.Errorf("ParseSystem(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := thynvm.ParseSystem("bogus"); err == nil {
		t.Error("bogus system accepted")
	}
}

func TestDefaultOptionsFill(t *testing.T) {
	sys, err := thynvm.NewSystem(thynvm.SystemThyNVM, thynvm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Options().PhysBytes == 0 || sys.Options().EpochLen == 0 {
		t.Error("defaults not filled")
	}
}

func TestQuickstartFlow(t *testing.T) {
	sys := thynvm.MustNewSystem(thynvm.SystemThyNVM, smallOpts())
	sys.Write(0x1000, []byte("durable"))
	sys.Checkpoint()
	sys.Drain()
	sys.Write(0x1000, []byte("LOSTLOS"))
	sys.Crash()
	had, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !had {
		t.Fatal("no checkpoint recovered")
	}
	got := make([]byte, 7)
	sys.Read(0x1000, got)
	if string(got) != "durable" {
		t.Errorf("recovered %q, want \"durable\"", got)
	}
}

func TestRunWorkloadOnSystem(t *testing.T) {
	sys := thynvm.MustNewSystem(thynvm.SystemThyNVM, smallOpts())
	res := sys.Run(thynvm.RandomWorkload(1<<20, 1500, 7))
	if res.Ops != 1500 || res.System != "ThyNVM" || res.Workload != "Random" {
		t.Errorf("bad result %+v", res)
	}
}

func TestKVStoresOnSystem(t *testing.T) {
	sys := thynvm.MustNewSystem(thynvm.SystemThyNVM, smallOpts())
	st, arena, err := sys.NewHashTable(64, 4096, 1<<20, 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(1, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := st.Get(1)
	if err != nil || !ok || string(got) != "v1" {
		t.Fatalf("Get = %q %v %v", got, ok, err)
	}
	// Arena state round-trips through RestoreArena.
	a2, err := thynvm.RestoreArena(arena.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := sys.OpenHashTable(64, a2)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, _ = st2.Get(1)
	if !ok || string(got) != "v1" {
		t.Error("reopened store lost data")
	}

	tr, _, err := sys.NewRBTree(2048, 2<<20, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Put(9, []byte("tree")); err != nil {
		t.Fatal(err)
	}
	got, ok, _ = tr.Get(9)
	if !ok || !bytes.Equal(got, []byte("tree")) {
		t.Error("rbtree on system failed")
	}
}

func TestRunKVMix(t *testing.T) {
	sys := thynvm.MustNewSystem(thynvm.SystemIdealDRAM, smallOpts())
	st, _, err := sys.NewHashTable(64, 4096, 2<<20, 64)
	if err != nil {
		t.Fatal(err)
	}
	n, err := thynvm.RunKVMix(st, 500, 32, 128, 3)
	if err != nil || n != 500 {
		t.Fatalf("RunKVMix = %d, %v", n, err)
	}
}

func TestOracleExported(t *testing.T) {
	sys := thynvm.MustNewSystem(thynvm.SystemThyNVM, smallOpts())
	o := thynvm.NewOracle()
	sys.Write(0, []byte{1, 2, 3})
	o.RecordWrite(0, 3)
	sys.PreCheckpoint = func(m *thynvm.Machine) {
		o.Capture(m.Controller(), "b", m.Now())
	}
	sys.Checkpoint()
	sys.Drain()
	sys.Crash()
	if _, err := sys.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, label, ok := o.Match(sys.Controller()); !ok || label != "b" {
		t.Error("oracle did not recognize recovered state")
	}
}

func TestSPECWorkloads(t *testing.T) {
	if len(thynvm.SPECNames()) != 8 {
		t.Fatal("expected 8 SPEC stand-ins")
	}
	g, err := thynvm.SPECWorkload("lbm", 1<<20, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys := thynvm.MustNewSystem(thynvm.SystemIdealNVM, smallOpts())
	res := sys.Run(g)
	if res.Ops != 100 {
		t.Errorf("ops = %d", res.Ops)
	}
}

// TestSystemClose checks Close's contract on every kind of system, with and
// without caches: closing twice is safe, and an access after Close panics
// instead of passing through the released cache hierarchy.
func TestSystemClose(t *testing.T) {
	for _, k := range thynvm.AllSystems() {
		for _, noCaches := range []bool{false, true} {
			opts := smallOpts()
			opts.NoCaches = noCaches
			sys := thynvm.MustNewSystem(k, opts)
			sys.Write(4096, []byte("abc"))
			if err := sys.Close(); err != nil {
				t.Fatalf("%s: Close: %v", k, err)
			}
			if err := sys.Close(); err != nil {
				t.Fatalf("%s: second Close: %v", k, err)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (no caches %v): Read after Close did not panic", k, noCaches)
					}
				}()
				sys.Read(4096, make([]byte, 3))
			}()
		}
	}
}

// TestConcurrentNewSystemClose builds, runs and closes systems from several
// goroutines at once, so recycled cache levels pass between goroutines
// through the shared free list. Under -race it checks that hand-off; every
// run must also reproduce the sequential result exactly.
func TestConcurrentNewSystemClose(t *testing.T) {
	run := func() (thynvm.Result, error) {
		sys, err := thynvm.NewSystem(thynvm.SystemThyNVM, smallOpts())
		if err != nil {
			return thynvm.Result{}, err
		}
		res := sys.Run(thynvm.RandomWorkload(256<<10, 3000, 1))
		return res, sys.Close()
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := run()
				if err == nil && got != want {
					err = fmt.Errorf("run %d: %+v, sequential %+v", i, got, want)
				}
				if err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
