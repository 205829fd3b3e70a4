package main

// metricSpec is one row of the metric table. BENCHMARK.json at the
// repository root carries the same rows for the driver; a test keeps the
// two in step.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated regression, share of the parent's median
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// endToEnd are the gated metrics, defined on all four workloads. The
// system under test is the psid process, or the benchmark's own process
// for batch-index.
//
// The list is short on purpose, and README.md ("What is gated, and why so
// little") has the measurements behind it. The contract gates a metric
// only if its spread over ten runs stays within its bound, at most 0.25,
// on every workload. On the shared two-core hosts this runs on, every
// clock-derived metric — throughput, latency, CPU per op — moves by 0.10
// to 0.25 from one run to the next with the host's memory contention, for
// minutes at a time; neither longer windows, medians over slices, nor
// scaling by a memory-latency probe made them steady on all four
// workloads. By the issue's own rule such a cell is moved to the
// per-layer list under its own name and not given a wider bound, so
// clientObserved below is measured and printed by every run but gated by
// none. Failures are not a metric either (a metric may never be 0): they
// are the failed and attempted counts of every result.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.20},
}

// clientObserved are the rates and latencies a client of the system sees,
// and the CPU they cost: what a speed claim is made with, in alternating
// pairs of runs (choosing-metrics guide, section 8).
func clientObserved() []metricSpec {
	return []metricSpec{
		{Name: "mut_kops_s", Unit: "kops/s", Better: "higher"},
		{Name: "query_kops_s", Unit: "kops/s", Better: "higher"},
		{Name: "mut_p50_us", Unit: "us", Better: "lower"},
		{Name: "mut_p99_us", Unit: "us", Better: "lower"},
		{Name: "query_p50_us", Unit: "us", Better: "lower"},
		{Name: "query_p99_us", Unit: "us", Better: "lower"},
		{Name: "cpu_us_op", Unit: "us", Better: "lower"},
	}
}

// perLayer are the ungated metrics, printed by the traced run: the
// client-observed rows first, then the layers'. A name's prefix is the
// layer (README.md lists the modules behind each). The *_share rows and
// the rows marked "of the run" come from the traced workload itself; every
// other row comes from the layer suite, which is the same in every traced
// run.
var perLayer = layerTable()

func layerTable() []metricSpec {
	out := clientObserved()
	row := func(name, unit, better string) { out = append(out, metricSpec{Name: name, Unit: unit, Better: better}) }
	for _, t := range []string{"porth", "spach"} {
		p := "index." + t + "."
		row(p+"build_ns_pt", "ns", "lower")
		row(p+"build_speedup", "ratio", "higher")
		row(p+"bytes_pt", "B", "lower")
		row(p+"insert_ns_pt", "ns", "lower")
		row(p+"delete_ns_pt", "ns", "lower")
		row(p+"diff_ns_pt", "ns", "lower")
		row(p+"diff_large_ns_pt", "ns", "lower")
		row(p+"diff_large_speedup", "ratio", "higher")
		row(p+"diff_allocs", "count", "lower")
		row(p+"diff_small_ns_pt", "ns", "lower")
		row(p+"knn_ns", "ns", "lower")
		row(p+"knn_ood_ns", "ns", "lower")
		row(p+"rangecount_ns", "ns", "lower")
		row(p+"rangelist_ns_hit", "ns", "lower")
	}
	for _, t := range []string{"spacz", "pkd", "zd"} {
		p := "index." + t + "."
		row(p+"build_ns_pt", "ns", "lower")
		row(p+"diff_ns_pt", "ns", "lower")
		row(p+"knn_ns", "ns", "lower")
	}
	row("index.self_share", "share", "lower") // of the run

	row("shard.build_ns_pt", "ns", "lower")
	row("shard.diff_ns_pt", "ns", "lower")
	row("shard.diff_small_ns_pt", "ns", "lower")
	row("shard.knn_ns", "ns", "lower")
	row("shard.rangelist_ns_hit", "ns", "lower")
	row("shard.imbalance", "ratio", "lower")
	row("shard.self_share", "share", "lower") // of the run

	row("collection.set_ns", "ns", "lower")
	row("collection.flush_ns_op", "ns", "lower")
	row("collection.flush_small_us", "us", "lower")
	row("collection.netting_ratio", "ratio", "lower")
	row("collection.flush_allocs", "count", "lower")
	row("collection.bytes_obj", "B", "lower")
	row("collection.nearby_ns", "ns", "lower")
	row("collection.within_ns_hit", "ns", "lower")
	row("collection.get_ns", "ns", "lower")
	row("collection.reader_stall_us", "us", "lower")
	row("collection.self_share", "share", "lower") // of the run

	row("wal.append_us_ack", "us", "lower")
	row("wal.bytes_per_op", "B", "lower")
	row("wal.fsyncs_per_ack", "count", "lower")
	row("wal.checkpoint_ms", "ms", "lower")
	row("wal.checkpoint_stall_us", "us", "lower")
	row("wal.recover_ms", "ms", "lower")
	row("wal.recover_snap_ms", "ms", "lower")
	row("wal.self_share", "share", "lower") // of the run

	row("repl.visible_lag_us", "us", "lower")
	row("repl.bootstrap_ms", "ms", "lower")
	row("repl.ship_us_window", "us", "lower")

	row("service.set_ns", "ns", "lower")
	row("service.nearby_ns", "ns", "lower")
	row("service.within_ns_hit", "ns", "lower")
	row("service.get_ns", "ns", "lower")
	row("service.serve_allocs", "count", "lower")
	row("service.self_set_ns", "ns", "lower")
	row("service.self_nearby_ns", "ns", "lower")
	row("service.visible_lag_us", "us", "lower")
	row("service.socket_us", "us", "lower")          // of the run
	row("service.flushes_per_kop", "count", "lower") // of the run
	row("service.self_share", "share", "lower")      // of the run

	row("client.mem_probe_ns", "ns", "lower")            // of the run
	row("client.encode_ns_op", "ns", "lower")            // of the run
	row("client.cpu_share", "share", "lower")            // of the run
	row("client.socket_share", "share", "lower")         // of the run
	row("client.trace_overhead_share", "share", "lower") // of the run
	return out
}
