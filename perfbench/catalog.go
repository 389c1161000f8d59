package main

// The metric catalogue: every name the benchmark prints, with its unit.
// BENCHMARK.json lists the same names and units (the self-test checks
// that), and every workload prints all of them: a layer a workload does
// not exercise reads 0 on its per-layer metrics.

// endToEndUnits are the metrics a user of the system sees. What a
// workload's request is differs: see README.md.
var endToEndUnits = []metricUnit{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_mean_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// perLayerUnits are the metrics of single layers, from traced runs.
var perLayerUnits = []metricUnit{
	{"topology.gen_s", "s"},
	{"static.env_s", "s"},

	{"snapshot.build_s", "s"},
	{"snapshot.bytes_per_node", "B"},
	{"snapshot.fail_ms_p50", "ms"},
	{"snapshot.fail_ms_p90", "ms"},
	{"snapshot.recover_ms_p50", "ms"},
	{"snapshot.recover_ms_p90", "ms"},
	{"snapshot.vic_rebuilt", "count"},
	{"snapshot.rows_rebuilt", "count"},
	{"snapshot.rows_patched", "count"},
	{"snapshot.folds", "count"},
	{"snapshot.vic_changed_ratio", "ratio"},
	{"snapshot.allocs_per_event", "count"},

	{"forward.precompile_s", "s"},
	{"forward.derive_us_p50", "us"},
	{"forward.lazy_compiles", "shards/epoch"},

	{"serve.publish_us_p50", "us"},
	{"serve.probe_us_p50", "us"},
	{"serve.probe_us_p99", "us"},
	{"serve.stale_pct", "%"},
	{"serve.epochs_unreclaimed", "count"},
	{"churn.gen_late_ms_p90", "ms"},

	{"graph.shortest_dist_us_p50", "us"},
	{"graph.shortest_dist_us_p99", "us"},

	{"core.disco_first_us_p50", "us"},
	{"core.disco_first_us_p99", "us"},
	{"core.disco_later_us_p50", "us"},
	{"core.disco_later_us_p99", "us"},
	{"core.disco_fallbacks", "count"},
	{"s4.first_us_p50", "us"},
	{"s4.later_us_p50", "us"},

	{"sim.steps", "count"},
	{"sim.steps_per_s", "1/s"},
	{"pathvector.messages", "count"},
	{"pathvector.converge_s", "s"},
	{"pathvector.calibration_s", "s"},
	{"pathvector.clone_ms_p50", "ms"},
	{"pathvector.triggered_ms_p50", "ms"},
	{"pathvector.refresh_ms_p50", "ms"},
	{"pathvector.refresh_rounds", "count"},
	{"pathvector.refresh_messages", "count"},
	{"pathvector.refresh_useful_ratio", "ratio"},

	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

type metricUnit struct{ name, unit string }

func unitOf(list []metricUnit, name string) (string, bool) {
	for _, m := range list {
		if m.name == name {
			return m.unit, true
		}
	}
	return "", false
}
