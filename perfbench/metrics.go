package main

import "thynvm/internal/mem"

// metricDef names one reported metric and its unit. The two lists below are
// the benchmark's contract with BENCHMARK.json; the tests check that they
// agree with it.
type metricDef struct {
	name string
	unit string
}

// endToEnd metrics come from the untraced run (--trace 0).
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// hostPkgs are the packages whose share of host CPU time the traced run
// reports, folded from a CPU profile by the innermost frame's package.
var hostPkgs = []string{
	"trace", "kv", "alloc", "sim", "cpu", "cache", "mem", "radix",
	"core", "baseline", "verify", "torture", "thynvm", "runtime", "other",
}

// ctlOps are the controller methods the traced run wraps, by metric name.
var ctlOps = []struct {
	name string
	l    layer
}{
	{"read_block", lCtlRead},
	{"write_block", lCtlWrite},
	{"checkpoint_due", lCtlDue},
	{"drain_checkpoint", lCtlDrain},
	{"begin_checkpoint", lCtlBegin},
}

var ctlSplits = []string{"core", "baseline"}

// perLayer metrics come from the traced run (--trace 1).
var perLayer = func() []metricDef {
	d := []metricDef{
		{"trace.next.calls", "count"},
		{"trace.next.self_s", "s"},
		{"kv.tx.calls", "count"},
		{"kv.tx.self_s", "s"},
		{"kv.tx.p50_us", "us"},
		{"kv.tx.p99_us", "us"},
		{"kv.mem_calls_per_tx", "count"},
		{"kv.get.hit_ratio", "ratio"},
		{"sim.checkpoint.calls", "count"},
		{"sim.checkpoint.self_s", "s"},
		{"sim.checkpoint.p50_us", "us"},
		{"sim.checkpoint.p99_us", "us"},
		{"sim.checkpoint.flushed_blocks", "count"},
		{"sim.checkpoint.ns_per_flushed_block", "ns"},
		{"sim.drain.self_s", "s"},
		{"sim.access.calls", "count"},
		{"sim.access.self_s", "s"},
		{"cache.l1.hit_ratio", "ratio"},
		{"cache.l2.hit_ratio", "ratio"},
		{"cache.l3.hit_ratio", "ratio"},
	}
	for _, op := range ctlOps {
		for _, s := range ctlSplits {
			p := "ctl." + op.name + "." + s
			d = append(d, metricDef{p + ".calls", "count"}, metricDef{p + ".self_s", "s"})
			if op.l == lCtlBegin {
				d = append(d, metricDef{p + ".p50_us", "us"}, metricDef{p + ".p99_us", "us"})
			}
		}
	}
	d = append(d,
		metricDef{"mem.nvm.write_mb.cpu", "MB"},
		metricDef{"mem.nvm.write_mb.ckpt", "MB"},
		metricDef{"mem.nvm.write_mb.migr", "MB"},
		metricDef{"mem.dram.write_mb", "MB"},
		metricDef{"mem.host_ns_per_nvm_write", "ns"},
		metricDef{"sim.cycles_per_op", "cycles"},
		metricDef{"sim.ckpt_stall_share", "ratio"},
		metricDef{"sim.mem_stall_share", "ratio"},
		metricDef{"thynvm.new_system.p50_ms", "ms"},
		metricDef{"torture.run.calls", "count"},
		metricDef{"torture.run.p50_ms", "ms"},
		metricDef{"torture.run.p99_ms", "ms"},
		metricDef{"torture.match_ratio", "ratio"},
		metricDef{"torture.verdict.clean", "count"},
		metricDef{"torture.verdict.fallback", "count"},
		metricDef{"torture.verdict.unrecoverable", "count"},
		metricDef{"torture.verdict.violation", "count"},
		metricDef{"runtime.gc.cpu_share", "ratio"},
		metricDef{"runtime.gc.cycles", "count"},
		metricDef{"runtime.allocs_per_op", "count"},
		metricDef{"runtime.alloc_bytes_per_op", "B"},
	)
	for _, p := range hostPkgs {
		d = append(d, metricDef{"host." + p + ".share", "ratio"})
	}
	return append(d, metricDef{"trace_overhead", "ratio"})
}()

// metricSet collects values by name; names not set are reported as 0.
type metricSet map[string]float64

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// simMetricSet builds the simulated per-layer metrics shared by the
// workloads that can see the machine.
func simMetricSet(cycles, ops, ckptStall, memStall float64, nvm [mem.NumWriteSources]uint64, dram uint64, hit, miss [3]float64) metricSet {
	const mb = 1 << 20
	ms := metricSet{
		"sim.cycles_per_op":     ratio(cycles, ops),
		"sim.ckpt_stall_share":  ratio(ckptStall, cycles),
		"sim.mem_stall_share":   ratio(memStall, cycles),
		"mem.nvm.write_mb.cpu":  float64(nvm[mem.SrcCPU]) / mb,
		"mem.nvm.write_mb.ckpt": float64(nvm[mem.SrcCheckpoint]) / mb,
		"mem.nvm.write_mb.migr": float64(nvm[mem.SrcMigration]) / mb,
		"mem.dram.write_mb":     float64(dram) / mb,
	}
	for l, name := range []string{"l1", "l2", "l3"} {
		ms["cache."+name+".hit_ratio"] = ratio(hit[l], hit[l]+miss[l])
	}
	return ms
}
