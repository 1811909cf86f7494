package main

import (
	"skybridge/internal/obs"
)

// Latency split names (result.byKind).
const (
	kindCall0  = "call0"  // echo calls with no payload
	kindRead   = "read"   // YCSB reads
	kindUpdate = "update" // YCSB updates
	kindLag    = "lag"    // open-loop generator lateness (not an op latency)
)

// paperCall0 is Table 2's direct server call: 396 cycles on the paper's
// Skylake testbed.
const paperCall0 = 396

// metric is one measured value as printed: one JSON line each.
type metric struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  uint64  `json:"samples"`
}

// endToEnd is the BENCHMARK.json end_to_end list, in order.
var endToEnd = []string{
	"goodput_ops_per_mcyc", "lat_p50_cyc", "lat_p99_cyc", "lat_p999_cyc",
	"host_ops_per_s", "setup_s", "peak_rss_mb",
}

// perLayer is the BENCHMARK.json per_layer list: what -trace 1 reports.
var perLayer = []string{
	"hw.l1d_miss_ratio", "hw.l2_miss_ratio", "hw.l3_miss_ratio",
	"hw.dtlb_miss_ratio", "hw.itlb_miss_ratio",
	"hw.page_walks_per_op", "hw.ept_walk_reads_per_op",
	"hw.instructions_per_op", "hw.vmfuncs_per_op", "hw.syscalls_per_op",
	"hw.ipis_per_op", "hw.vm_exits",
	"hv.eptp_slot_loads_per_op", "hv.eptp_slot_evictions_per_op",
	"core.direct_calls_per_op", "core.batch_crossings_per_op", "core.ring_ops_per_op",
	"core.doorbells_per_op", "core.doorbell_skip_frac",
	"core.crossing_cyc_p50", "core.crossing_cyc_p99", "core.call0_cyc",
	"core.dir.migrations", "core.dir.steals", "core.dir.scale_downs", "core.dir.scale_ups",
	"core.dir.wrong_epoch", "svc.router.retries", "core.fe.ring_wait_cyc_p50", "gen.lag_p99_cyc",
	"mk.spin_wakes_per_op", "mk.parks_per_op", "mk.ipi_wakes_per_op", "mk.ipc_cyc_p50",
	"kv.handler_cyc_p50",
	"db.self_cyc_p50", "db.pager_reads_per_op", "db.pager_writes_per_op", "db.prefetches_per_op",
	"fs.self_cyc_p50", "fs.lock_wait_cyc_per_op", "fs.lock_contended_frac",
	"fs.bcache_hit_ratio", "fs.commits_per_op",
	"blockdev.cyc_p50", "blockdev.calls_per_op",
	"ycsb.read_p50_cyc", "ycsb.update_p50_cyc",
	"host.frac.hw", "host.frac.sim", "host.frac.runtime", "host.frac.mk",
	"host.frac.core", "host.frac.hv", "host.frac.storage", "host.frac.other",
	"host.gc_cpu_frac", "host.trace_overhead",
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// minSegments is how many host segments a window needs before host
// metrics use their median; shorter windows use whole-window values.
const minSegments = 3

// endToEndMetrics derives the end-to-end metrics (and fail_frac, which is
// printed but, being 0 on a healthy run, is not a BENCHMARK.json metric).
// Host rate and peak RSS are medians over the window's segments, and
// host times are scaled to the reference box's speed by the calibration
// loop timed in the window; a window too short to sample reports raw
// whole-window values instead, with rssMB the whole-run peak.
func endToEndMetrics(name string, r *result, rssMB float64) []metric {
	ok := uint64(r.attempted - r.failed)
	n := r.lat.n
	rate := float64(r.attempted) / r.host.wall.Seconds()
	setupScale := 1.0
	if len(r.host.rates) >= minSegments {
		rate = median(r.host.rates)
		setupScale = float64(calibRef) / float64(median(r.host.calibs))
	}
	if len(r.host.peaks) >= minSegments {
		rssMB = median(r.host.peaks)
	}
	return []metric{
		{name, "goodput_ops_per_mcyc", float64(ok) * 1e6 / float64(r.makespan), "op/Mc", ok},
		{name, "lat_p50_cyc", float64(r.lat.quantile(0.5)), "cycles", n},
		{name, "lat_p99_cyc", float64(r.lat.quantile(0.99)), "cycles", r.lat.beyond(0.99)},
		{name, "lat_p999_cyc", float64(r.lat.quantile(0.999)), "cycles", r.lat.beyond(0.999)},
		{name, "fail_frac", float64(r.failed) / float64(r.attempted), "ratio", uint64(r.attempted)},
		{name, "host_ops_per_s", rate, "ops/s", uint64(len(r.host.rates))},
		{name, "setup_s", median(r.setup).Seconds() * setupScale, "s", uint64(len(r.setup))},
		{name, "peak_rss_mb", rssMB, "MB", uint64(len(r.host.peaks))},
	}
}

// layerMetrics derives the per-layer metrics a run can measure: machine
// and service counters always, span statistics when traced. The
// host.frac.* and host.trace_overhead metrics come from the traced
// run's parent (see traced).
func layerMetrics(name string, r *result) []metric {
	ops := uint64(r.attempted)
	per := func(counter string) float64 { return ratio(r.reg.Value(counter), ops) }
	sum := func(suffix string) uint64 { return r.reg.SumSuffix(suffix) }
	miss := func(cache string) float64 { return ratio(sum(cache+".misses"), sum(cache+".accesses")) }
	bells, skipped := r.reg.Value("core.ring_doorbells"), r.reg.Value("core.ring_doorbells_skipped")
	m := []metric{
		{name, "hw.l1d_miss_ratio", miss(".L1D"), "ratio", sum(".L1D.accesses")},
		{name, "hw.l2_miss_ratio", miss(".L2"), "ratio", sum(".L2.accesses")},
		{name, "hw.l3_miss_ratio", ratio(r.reg.Value("L3.misses"), r.reg.Value("L3.accesses")), "ratio", r.reg.Value("L3.accesses")},
		{name, "hw.dtlb_miss_ratio", ratio(sum(".DTLB.misses"), sum(".DTLB.lookups")), "ratio", sum(".DTLB.lookups")},
		{name, "hw.itlb_miss_ratio", ratio(sum(".ITLB.misses"), sum(".ITLB.lookups")), "ratio", sum(".ITLB.lookups")},
		{name, "hw.page_walks_per_op", ratio(sum(".page_walks"), ops), "1/op", ops},
		{name, "hw.ept_walk_reads_per_op", ratio(sum(".ept_walk_reads"), ops), "1/op", ops},
		{name, "hw.instructions_per_op", ratio(sum(".instructions"), ops), "1/op", ops},
		{name, "hw.vmfuncs_per_op", ratio(sum(".vmfuncs"), ops), "1/op", ops},
		{name, "hw.syscalls_per_op", ratio(sum(".syscalls"), ops), "1/op", ops},
		{name, "hw.ipis_per_op", per("machine.ipis"), "1/op", ops},
		{name, "hw.vm_exits", float64(r.vmExits), "count", 1},
		{name, "hv.eptp_slot_loads_per_op", per("hv.slot_loads"), "1/op", ops},
		{name, "hv.eptp_slot_evictions_per_op", per("hv.slot_evictions"), "1/op", ops},
		{name, "core.direct_calls_per_op", per("core.direct_calls"), "1/op", ops},
		{name, "core.batch_crossings_per_op", per("core.batch_calls"), "1/op", ops},
		{name, "core.ring_ops_per_op", per("core.ring_ops"), "1/op", ops},
		{name, "core.doorbells_per_op", per("core.ring_doorbells"), "1/op", ops},
		{name, "core.doorbell_skip_frac", ratio(skipped, bells+skipped), "ratio", bells + skipped},
		{name, "mk.spin_wakes_per_op", per("mk.wake_spin"), "1/op", ops},
		{name, "mk.parks_per_op", per("mk.wake_parks"), "1/op", ops},
		{name, "mk.ipi_wakes_per_op", per("mk.wake_ipi"), "1/op", ops},
	}
	quant := func(metricName string, l *latencies, q float64) {
		var v, n uint64
		if l != nil {
			v, n = l.quantile(q), l.n
		}
		m = append(m, metric{name, metricName, float64(v), "cycles", n})
	}
	quant("core.call0_cyc", r.byKind[kindCall0], 0.5)
	quant("gen.lag_p99_cyc", r.byKind[kindLag], 0.99)
	quant("ycsb.read_p50_cyc", r.byKind[kindRead], 0.5)
	quant("ycsb.update_p50_cyc", r.byKind[kindUpdate], 0.5)

	ringWait := &obs.Histogram{}
	if r.calls != nil {
		ringWait = r.calls.Breakdown.Phase(obs.PhaseRingWait)
	}
	m = append(m, metric{name, "core.fe.ring_wait_cyc_p50", float64(ringWait.Quantile(0.5)), "cycles", ringWait.Count()})

	for _, k := range workloadLayerKeys {
		m = append(m, metric{name, k.name, r.layer[k.name], k.unit, ops})
	}
	if r.spans == nil {
		return m
	}
	span := func(metricName, layer string, self bool, q float64) {
		var l *latencies
		if ls := r.spans.stat(layer); ls != nil {
			l = ls.dur
			if self {
				l = ls.self
			}
		}
		quant(metricName, l, q)
	}
	span("core.crossing_cyc_p50", layerSBCall, true, 0.5)
	span("core.crossing_cyc_p99", layerSBCall, true, 0.99)
	span("mk.ipc_cyc_p50", layerIPCCall, true, 0.5)
	span("kv.handler_cyc_p50", layerKV, false, 0.5)
	span("db.self_cyc_p50", layerDB, true, 0.5)
	span("fs.self_cyc_p50", layerFS, true, 0.5)
	span("blockdev.cyc_p50", layerDev, false, 0.5)
	var devCalls uint64
	if ls := r.spans.stat(layerDev); ls != nil {
		devCalls = ls.dur.n
	}
	m = append(m, metric{name, "blockdev.calls_per_op", ratio(devCalls, ops), "1/op", devCalls})
	return m
}

// workloadLayerKeys are the per-layer values a workload fills in itself
// (result.layer); workloads without the layer report 0.
var workloadLayerKeys = []struct{ name, unit string }{
	{"core.dir.migrations", "count"},
	{"core.dir.steals", "count"},
	{"core.dir.scale_downs", "count"},
	{"core.dir.scale_ups", "count"},
	{"core.dir.wrong_epoch", "count"},
	{"svc.router.retries", "count"},
	{"db.pager_reads_per_op", "1/op"},
	{"db.pager_writes_per_op", "1/op"},
	{"db.prefetches_per_op", "1/op"},
	{"fs.lock_wait_cyc_per_op", "cycles/op"},
	{"fs.lock_contended_frac", "ratio"},
	{"fs.bcache_hit_ratio", "ratio"},
	{"fs.commits_per_op", "1/op"},
}
