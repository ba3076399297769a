package main

// metricDef names one reported metric with its unit and the direction
// that counts as better. The lists below are the benchmark's contract
// with BENCHMARK.json (a test keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the serving stack or the simulator
// sees, reported by untraced runs (--trace 0) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"qps", "1/s", "higher"},
	{"cpu_us_per_query", "us", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"recall_at_10", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's (--trace 1) numbers, one group per
// layer. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"batcher.batch_mean", "count", "higher"},
	{"batcher.wait_p50_us", "us", "lower"},
	{"engine.fanout_p50_us", "us", "lower"},
	{"engine.task_wait_p50_us", "us", "lower"},
	{"engine.merge_p50_us", "us", "lower"},
	{"engine.base_k_mean", "count", "lower"},
	{"engine.widen_useful_ratio", "ratio", "higher"},
	{"engine.write_p50_us", "us", "lower"},
	{"engine.write_p90_us", "us", "lower"},
	{"hnsw.search_p50_us", "us", "lower"},
	{"hnsw.hops_per_search", "count", "lower"},
	{"hnsw.dist_evals_per_search", "count", "lower"},
	{"hnsw.unique_ratio", "ratio", "higher"},
	{"vec.l2_ns_per_dist", "ns", "lower"},
	{"snapshot.load_ms", "ms", "lower"},
	{"snapshot.touches_per_query", "count", "lower"},
	{"snapshot.faults_per_query", "count", "lower"},
	{"snapshot.hit_ratio", "ratio", "higher"},
	{"delta.rows_mean", "count", "lower"},
	{"delta.shadows_mean", "count", "lower"},
	{"delta.scan_p50_us", "us", "lower"},
	{"delta.ns_per_row", "ns", "lower"},
	{"compactor.runs", "count", "higher"},
	{"compactor.compact_s", "s", "lower"},
	{"core.simulate_ms", "ms", "lower"},
	{"core.nospec_simulate_ms", "ms", "lower"},
	{"core.spec_share", "ratio", "lower"},
	{"core.iterations", "count", "lower"},
	{"core.page_reads", "count", "lower"},
	{"core.spec_hit_ratio", "ratio", "higher"},
	{"obs.trace_overhead", "ratio", "lower"},
	{"queue_model.p50_ms", "ms", "lower"},
	{"queue_model.p95_ms", "ms", "lower"},
	{"loadgen.lag_p99_ms", "ms", "lower"},
	{"host.steal_share", "ratio", "lower"},
}
