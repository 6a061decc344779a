// Command perfbench is the repository's host-time benchmark. It drives the
// simulator through its Go API from one process, on one of three
// workloads, and prints every metric by name and unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (ops_per_s, setup_s,
// rss_peak_mb). With --trace 1 the run is split in two halves on fresh,
// identically seeded systems: an untraced half (CPU-profiled, for the
// per-package host shares and the runtime counters) and a traced half whose
// spans time every call at the layer boundaries. The two halves must give
// the same simulated-statistics digest. See README.md for the workloads,
// the layer metrics and how the benchmark keeps its numbers steady.
//
// Run it from the repository root with:
//
//	python3 perfbench/run.py --workload kv-ckpt --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"thynvm"
	"thynvm/internal/kv"
	"thynvm/internal/torture"
)

// defaultSeed is the seed whose simulated-statistics digests are recorded
// in digests.go.
const defaultSeed = 1

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"kv-ckpt", "spec-ideal", "torture"}

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	// setupReps is how many times the untraced run sets the workload up;
	// setup_s is the median, and each set-up is measured for its share of
	// the seconds.
	setupReps int

	// Test hooks: wrap the memory the KV stores run on, and stamp a
	// silent fault on every torture schedule.
	kvMem   func(kv.Memory) kv.Memory
	tInject *torture.SilentFault
}

// workload is one of the benchmark's workloads on freshly built systems.
// Every measured round does a fixed amount of work derived from the seed
// and the round index, so round 0 — whose simulated statistics the digest
// covers — is the same work in every run of a seed.
type workload interface {
	// setup builds the systems and inputs, preloads and warms up:
	// everything before the first timed operation.
	setup() error
	// round runs measured round r. It returns the operations it ran (the
	// rate's numerator), the operations whose output it checked for the
	// first time (counted in attempted) and how many of those failed.
	round(r int) (ops, checked, failed int)
	// digest hashes the simulated statistics of round 0.
	digest() string
	// finish runs the end-of-run checks. It returns the operations those
	// checks attempted and failed, and whether the run-level checks held.
	finish() (attempted, failed int, ok bool)
	// simMetrics adds the simulated per-layer metrics of round 0.
	simMetrics(ms metricSet)
	// nvmWrites is the cumulative count of NVM device writes, or 0 where
	// the workload cannot observe it.
	nvmWrites() uint64
	// close releases the systems.
	close()
}

func newWorkload(cfg config, t *tracer) (workload, error) {
	switch cfg.workload {
	case "kv-ckpt":
		return newKVWorkload(cfg, t), nil
	case "spec-ideal":
		return newSpecWorkload(cfg, t), nil
	case "torture":
		return newTortureWorkload(cfg, t), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// sizes fixes how much work each workload does per set-up and per round.
type sizes struct {
	name string
	// kv-ckpt: key space, value bytes, transactions per cell per round,
	// and warm-up transactions per cell.
	kvKeys, kvValue, kvTx, kvWarmTx int
	// spec-ideal: trace operations per cell per round and for warm-up.
	specOps, specWarmOps int
	// torture: schedules per system per round (and for warm-up), and
	// rounds in the pre-generated pool the measured phase cycles through.
	tortureSchedules, torturePool int
}

var sizeByName = map[string]sizes{
	"full": {name: "full", kvKeys: 8192, kvValue: 4096, kvTx: 400, kvWarmTx: 400,
		specOps: 40_000, specWarmOps: 120_000, tortureSchedules: 8, torturePool: 25},
	"tiny": {name: "tiny", kvKeys: 64, kvValue: 4096, kvTx: 20, kvWarmTx: 10,
		specOps: 2_000, specWarmOps: 1_000, tortureSchedules: 1, torturePool: 2},
}

// mixSeed derives an independent stream seed from the run seed and a
// stream index (splitmix64's finalizer).
func mixSeed(seed int64, stream uint64) int64 {
	v := uint64(seed)*0x9E3779B97F4A7C15 + stream + 1
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return int64(v >> 1)
}

// newSystem builds a system, timing construction when traced.
func newSystem(t *tracer, kind thynvm.SystemKind, opts thynvm.Options) (*thynvm.System, error) {
	t0 := time.Now()
	sys, err := thynvm.NewSystem(kind, opts)
	if t != nil {
		t.newSystem = append(t.newSystem, int64(time.Since(t0)))
	}
	return sys, err
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phase is one measured phase: whole rounds until the time is spent.
type phase struct {
	rounds  int
	ops     int
	checked int
	failed  int
	seconds float64
	rates   []float64 // ops per second of each round
	digest  string
}

func measure(w workload, seconds float64) phase {
	var ph phase
	start := time.Now()
	for r := 0; ; r++ {
		t0 := time.Now()
		ops, checked, failed := w.round(r)
		d := time.Since(t0).Seconds()
		if r == 0 {
			ph.digest = w.digest()
		}
		ph.rounds++
		ph.ops += ops
		ph.checked += checked
		ph.failed += failed
		ph.rates = append(ph.rates, ratio(float64(ops), d))
		if time.Since(start).Seconds() >= seconds {
			break
		}
	}
	ph.seconds = time.Since(start).Seconds()
	return ph
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupOnce builds and sets up a workload, timing everything up to the
// first measured operation (a forced collection included, so the measured
// phase starts from a settled heap).
func setupOnce(cfg config, t *tracer) (workload, float64, error) {
	t0 := time.Now()
	w, err := newWorkload(cfg, t)
	if err != nil {
		return nil, 0, err
	}
	if err := w.setup(); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("%s setup: %w", cfg.workload, err)
	}
	runtime.GC()
	return w, time.Since(t0).Seconds(), nil
}

// run executes one invocation and returns its report; notes are the
// human-readable lines printed before it.
func run(cfg config, notes io.Writer) (*report, error) {
	if cfg.trace {
		return runTraced(cfg, notes)
	}
	// Each set-up is measured for its share of the phase, so the pooled
	// rounds sample the host over the whole run rather than its last part.
	// Every set-up uses the same seed and must give the same digest.
	var (
		all        phase
		setups     []float64
		peaks      []float64
		resetPeaks = true
		rep        = &report{Correct: true}
	)
	for i := 0; i < cfg.setupReps; i++ {
		resetPeaks = resetPeakRSS() && resetPeaks
		w, s, err := setupOnce(cfg, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s)
		ph := measure(w, cfg.seconds/float64(cfg.setupReps))
		fa, ff, ok := w.finish()
		w.close()
		rep.Attempted += ph.checked + fa
		rep.Failed += ph.failed + ff
		rep.Correct = rep.Correct && ok
		if i == 0 {
			all.digest = ph.digest
		} else if ph.digest != all.digest {
			fmt.Fprintf(notes, "FAIL set-up %d digest %s differs from set-up 0's %s\n", i, ph.digest, all.digest)
			rep.Correct = false
		}
		all.rounds += ph.rounds
		all.ops += ph.ops
		all.seconds += ph.seconds
		all.rates = append(all.rates, ph.rates...)
		peaks = append(peaks, peakRSSMB())
		// Free this set-up before building the next.
		runtime.GC()
		debug.FreeOSMemory()
	}
	// The peak of one set-up and its share of the phase is an extreme
	// value that swings with the collector's timing; like setup_s it is
	// the median of three. Without a resettable peak, the process-wide
	// peak is all there is.
	rss := median(peaks)
	if !resetPeaks {
		rss = peaks[len(peaks)-1]
	}
	rep.Correct = checkDigest(cfg, all.digest, notes) && rep.Correct
	rep.Metrics = map[string]metricOut{
		"ops_per_s":   {median(all.rates), "ops/s"},
		"setup_s":     {median(setups), "s"},
		"rss_peak_mb": {rss, "MB"},
	}
	fmt.Fprintf(notes, "workload %s seed %d: %d rounds, %d ops in %.3f s, round rates p25/p50/p75 %s ops/s; set-ups %s s; peak RSS %s MB\n",
		cfg.workload, cfg.seed, all.rounds, all.ops, all.seconds, quartiles(all.rates), fmtFloats(setups), fmtFloats(peaks))
	return rep, nil
}

// runTraced gives the per-layer view: an untraced half, profiled, then a
// traced half on freshly set-up systems with the same seed.
func runTraced(cfg config, notes io.Writer) (*report, error) {
	half := cfg.seconds / 2
	ms := metricSet{}

	// Untraced half: host shares by package, runtime counters, and the
	// rate the tracing overhead is measured against.
	w, _, err := setupOnce(cfg, nil)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	// Sample at 500 Hz rather than pprof's 100 so a ten-second half gives
	// thousands of samples. (StartCPUProfile then warns on standard error
	// that the rate is already set; the profile uses this rate.)
	runtime.SetCPUProfileRate(500)
	rt0 := readRuntime()
	nvm0 := w.nvmWrites()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		w.close()
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	plain := measure(w, half)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	nvmDelta := w.nvmWrites() - nvm0
	fa, ff, ok := w.finish()
	w.close()
	attempted, failed := plain.checked+fa, plain.failed+ff

	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for _, p := range hostPkgs {
		ms["host."+p+".share"] = shares[p]
	}
	ms["mem.host_ns_per_nvm_write"] = ratio(shares["mem"]*plain.seconds*1e9, float64(nvmDelta))
	ms["runtime.gc.cpu_share"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	ms["runtime.gc.cycles"] = rt1.gcCycles - rt0.gcCycles
	ms["runtime.allocs_per_op"] = ratio(rt1.allocs-rt0.allocs, float64(plain.ops))
	ms["runtime.alloc_bytes_per_op"] = ratio(rt1.allocBytes-rt0.allocBytes, float64(plain.ops))

	// Traced half.
	runtime.GC()
	debug.FreeOSMemory()
	t := newTracer()
	w, _, err = setupOnce(cfg, t)
	if err != nil {
		return nil, err
	}
	defer w.close()
	t.reset()
	traced := measure(w, half)
	fa, ff, ok2 := w.finish()
	attempted += traced.checked + fa
	failed += traced.failed + ff
	ok = ok && ok2
	w.simMetrics(ms)
	addSpanMetrics(ms, t)
	ms["trace_overhead"] = ratio(median(plain.rates), median(traced.rates)) - 1

	if plain.digest != traced.digest {
		fmt.Fprintf(notes, "FAIL traced digest %s differs from untraced %s\n", traced.digest, plain.digest)
		ok = false
	}
	ok = checkDigest(cfg, plain.digest, notes) && ok
	fmt.Fprintf(notes, "workload %s seed %d: untraced %d rounds %.0f ops/s, traced %d rounds %.0f ops/s\n",
		cfg.workload, cfg.seed, plain.rounds, median(plain.rates), traced.rounds, median(traced.rates))

	rep := &report{Correct: ok, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, d := range perLayer {
		rep.Metrics[d.name] = metricOut{ms[d.name], d.unit}
	}
	return rep, nil
}

// addSpanMetrics turns the traced half's spans into per-layer metrics.
func addSpanMetrics(ms metricSet, t *tracer) {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	ms["trace.next.calls"] = float64(t.calls[lTraceNext])
	ms["trace.next.self_s"] = sec(t.self[lTraceNext])
	if t.calls[lKVTx] > 0 {
		ms["kv.tx.calls"] = float64(t.calls[lKVTx])
		ms["kv.tx.self_s"] = sec(t.self[lKVTx])
		ms["kv.tx.p50_us"] = percentile(t.lat[lKVTx], 0.50) / 1e3
		ms["kv.tx.p99_us"] = percentile(t.lat[lKVTx], 0.99) / 1e3
		ms["kv.mem_calls_per_tx"] = ratio(float64(t.calls[lAccess]), float64(t.calls[lKVTx]))
	}
	ms["sim.checkpoint.calls"] = float64(t.calls[lCheckpoint])
	ms["sim.checkpoint.self_s"] = sec(t.self[lCheckpoint])
	ms["sim.checkpoint.p50_us"] = percentile(t.lat[lCheckpoint], 0.50) / 1e3
	ms["sim.checkpoint.p99_us"] = percentile(t.lat[lCheckpoint], 0.99) / 1e3
	ms["sim.drain.self_s"] = sec(t.self[lDrain])
	ms["sim.access.calls"] = float64(t.calls[lAccess])
	ms["sim.access.self_s"] = sec(t.self[lAccess])
	for _, op := range ctlOps {
		for i, s := range ctlSplits {
			l := op.l + layer(i)
			p := "ctl." + op.name + "." + s
			ms[p+".calls"] = float64(t.calls[l])
			ms[p+".self_s"] = sec(t.self[l])
			if sampled[l] {
				ms[p+".p50_us"] = percentile(t.lat[l], 0.50) / 1e3
				ms[p+".p99_us"] = percentile(t.lat[l], 0.99) / 1e3
			}
		}
	}
	ms["thynvm.new_system.p50_ms"] = percentile(t.newSystem, 0.50) / 1e6
	if t.calls[lTortureRun] > 0 {
		ms["torture.run.calls"] = float64(t.calls[lTortureRun])
		ms["torture.run.p50_ms"] = percentile(t.lat[lTortureRun], 0.50) / 1e6
		ms["torture.run.p99_ms"] = percentile(t.lat[lTortureRun], 0.99) / 1e6
	}
}

// reset drops the spans recorded during set-up, keeping the measured
// phase's alone. System construction times are set-up's own and stay.
func (t *tracer) reset() {
	lat, ns := t.lat, t.newSystem
	*t = tracer{t0: t.t0, stack: t.stack[:0], newSystem: ns}
	for l := range lat {
		t.lat[l] = lat[l][:0]
	}
}

// checkDigest prints the round-0 digest and, for the default seed at full
// size, compares it with the recorded one.
func checkDigest(cfg config, got string, notes io.Writer) bool {
	want, ok := recordedDigests[cfg.workload]
	if cfg.seed != defaultSeed || cfg.size.name != "full" || !ok {
		fmt.Fprintf(notes, "digest %s seed %d size %s: %s (no recorded digest)\n", cfg.workload, cfg.seed, cfg.size.name, got)
		return true
	}
	if got != want {
		fmt.Fprintf(notes, "FAIL digest %s seed %d: %s, recorded %s\n", cfg.workload, cfg.seed, got, want)
		return false
	}
	fmt.Fprintf(notes, "digest %s seed %d: %s (matches recorded)\n", cfg.workload, cfg.seed, got)
	return true
}

type runtimeSample struct {
	gcCPU, totalCPU, gcCycles, allocs, allocBytes float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			v[i] = x.Value.Float64()
		case metrics.KindUint64:
			v[i] = float64(x.Value.Uint64())
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4]}
}

// resetPeakRSS restarts the kernel's resident-set high-water mark (Linux:
// writing 5 to /proc/self/clear_refs) and reports whether it could.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

func quartiles(v []float64) string {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1))] }
	return fmtFloats([]float64{q(0.25), q(0.5), q(0.75)})
}

func fmtFloats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// writeReport prints the metrics one per line, then the JSON result line.
func writeReport(out io.Writer, rep *report) error {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-40s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	fmt.Fprintf(out, "correct=%v attempted=%d failed=%d\n", rep.Correct, rep.Attempted, rep.Failed)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

func main() {
	// One Go processor: the collector then shares the benchmark's own
	// core instead of racing it for a second one another tenant may hold.
	runtime.GOMAXPROCS(1)
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", defaultSeed, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds (split in two halves with --trace 1)")
		tr      = flag.Int("trace", 0, "1 for the traced per-layer run")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", flag.Args())
	}
	if *tr != 0 && *tr != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, trace: *tr == 1, size: sizeByName["full"], setupReps: 3}
	var notes bytes.Buffer
	rep, err := run(cfg, &notes)
	os.Stdout.Write(notes.Bytes())
	if err != nil {
		return err
	}
	return writeReport(os.Stdout, rep)
}
