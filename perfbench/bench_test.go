package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"thynvm/internal/kv"
	"thynvm/internal/torture"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyConfig(wl string, seed int64, trace bool) config {
	return config{workload: wl, seed: seed, seconds: 0.05, trace: trace, size: sizeByName["tiny"], setupReps: 2}
}

// runTiny runs one tiny invocation and returns its report and notes.
func runTiny(t *testing.T, cfg config) (*report, string) {
	t.Helper()
	var notes bytes.Buffer
	rep, err := run(cfg, &notes)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	return rep, notes.String()
}

func TestRegistryMatchesBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames; !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	check := func(kind string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, reg []metricDef) {
		want := map[string]string{}
		for _, d := range reg {
			want[d.name] = d.unit
		}
		if len(file) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program defines %d", kind, len(file), len(want))
		}
		for _, m := range file {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json metric %s [%s], program has [%s] (defined=%v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// A tiny run of every workload, untraced and traced, prints every metric
// BENCHMARK.json names, with its unit, and passes its own checks.
func TestTinyRunPrintsEveryMetric(t *testing.T) {
	for _, wl := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, notes := runTiny(t, tinyConfig(wl, 7, traced))
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q != %q", wl, traced, d.name, m.Unit, d.unit)
				}
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed > rep.Attempted {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl, traced, rep.Correct, rep.Attempted, rep.Failed, notes)
			}
			// Torture reports the oracle's verdicts as they are; the other
			// workloads must not fail.
			if wl != "torture" && rep.Failed != 0 {
				t.Errorf("%s trace=%v: %d failed ops\n%s", wl, traced, rep.Failed, notes)
			}
			var out bytes.Buffer
			if err := writeReport(&out, rep); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
			var last map[string]json.RawMessage
			if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", wl, err)
			}
			if len(last) != 4 {
				t.Errorf("%s: result line keys %v", wl, last)
			}
		}
	}
}

func TestTortureInjectedFaultRaisesFailures(t *testing.T) {
	base, _ := runTiny(t, tinyConfig("torture", 7, false))
	cfg := tinyConfig("torture", 7, false)
	cfg.tInject = &torture.SilentFault{Target: torture.TargetData, Nth: 1, FlipBit: 5}
	rep, notes := runTiny(t, cfg)
	if rep.Failed <= base.Failed {
		t.Errorf("injected silent fault: failed %d, without it %d\n%s", rep.Failed, base.Failed, notes)
	}
}

// Torture checks each pool schedule once per set-up, so attempted and
// failed do not depend on how many schedules the measured phase ran.
func TestTortureCountsIndependentOfTime(t *testing.T) {
	short := tinyConfig("torture", 7, false)
	short.tInject = &torture.SilentFault{Target: torture.TargetData, Nth: 1, FlipBit: 5}
	long := short
	long.seconds = 1
	a, _ := runTiny(t, short)
	b, notes := runTiny(t, long)
	if a.Attempted != b.Attempted || a.Failed != b.Failed || a.Failed == 0 || !b.Correct {
		t.Errorf("%.2f s: %d failed of %d; %.2f s: %d failed of %d (correct=%v)\n%s",
			short.seconds, a.Failed, a.Attempted, long.seconds, b.Failed, b.Attempted, b.Correct, notes)
	}
}

// corruptMem flips a byte of every value-sized load: a store that returns
// wrong data.
type corruptMem struct{ kv.Memory }

func (c corruptMem) Read(addr uint64, buf []byte) {
	c.Memory.Read(addr, buf)
	if len(buf) >= 64 {
		buf[len(buf)/2] ^= 0x5a
	}
}

func TestKVCorruptedReadRaisesFailures(t *testing.T) {
	cfg := tinyConfig("kv-ckpt", 7, false)
	cfg.kvMem = func(m kv.Memory) kv.Memory { return corruptMem{m} }
	rep, notes := runTiny(t, cfg)
	if rep.Failed == 0 || rep.Failed > rep.Attempted {
		t.Errorf("corrupted reads: failed %d of %d\n%s", rep.Failed, rep.Attempted, notes)
	}
}

var digestLine = regexp.MustCompile(`digest \S+ seed \d+ size \w+: (\w+)`)

// Another seed changes the inputs, and so the digest, but not the set of
// metric names.
func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	for _, wl := range workloadNames {
		a, na := runTiny(t, tinyConfig(wl, 7, false))
		b, nb := runTiny(t, tinyConfig(wl, 8, false))
		da, db := digestLine.FindStringSubmatch(na), digestLine.FindStringSubmatch(nb)
		if da == nil || db == nil {
			t.Fatalf("%s: no digest line in\n%s\n%s", wl, na, nb)
		}
		if da[1] == db[1] {
			t.Errorf("%s: seeds 7 and 8 give the same digest %s", wl, da[1])
		}
		if !equalStrings(metricNames(a), metricNames(b)) {
			t.Errorf("%s: metric names differ across seeds: %v vs %v", wl, metricNames(a), metricNames(b))
		}
	}
}

// The same seed gives the same round-0 digest.
func TestSameSeedSameDigest(t *testing.T) {
	_, na := runTiny(t, tinyConfig("kv-ckpt", 9, false))
	_, nb := runTiny(t, tinyConfig("kv-ckpt", 9, false))
	if da, db := digestLine.FindStringSubmatch(na), digestLine.FindStringSubmatch(nb); da == nil || db == nil || da[1] != db[1] {
		t.Errorf("same seed, different digests:\n%s\n%s", na, nb)
	}
}

func TestRecordedDigestMismatchIsIncorrect(t *testing.T) {
	cfg := config{workload: "torture", seed: defaultSeed, size: sizeByName["full"]}
	var notes bytes.Buffer
	if checkDigest(cfg, "not-the-recorded-digest", &notes) {
		t.Errorf("a wrong digest for the default seed passed:\n%s", notes.String())
	}
	if !checkDigest(cfg, recordedDigests["torture"], &notes) {
		t.Errorf("the recorded digest failed:\n%s", notes.String())
	}
}

func TestFoldProfile(t *testing.T) {
	if got := funcPackage("thynvm/internal/cache.(*Hierarchy).fetch"); got != "thynvm/internal/cache" {
		t.Errorf("funcPackage = %q", got)
	}
	if got := funcPackage("thynvm/internal/alloc.Region[go.shape.struct { thynvm/internal/x.T }].Grab"); got != "thynvm/internal/alloc" {
		t.Errorf("funcPackage generic = %q", got)
	}
	if got := funcPackage("runtime.memmove"); got != "runtime" {
		t.Errorf("funcPackage = %q", got)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	x := 0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		x++
	}
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v: %v", sum, shares)
	}
}

func metricNames(r *report) []string {
	var n []string
	for k := range r.Metrics {
		n = append(n, k)
	}
	sort.Strings(n)
	return n
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
