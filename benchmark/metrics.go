package main

// metricDef names one reported metric. The names are the benchmark's
// contract with every later performance claim: BENCHMARK.json lists exactly
// these, and a test holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated relative worsening
}

// endToEnd are measured untraced, on every workload; each is the median of
// the run's passes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"update_ops_per_s", "1/s", "higher", 0.25},
	{"rq_per_s", "1/s", "higher", 0.25},
	{"update_p50_ns", "ns", "lower", 0.25},
	{"rq_p50_us", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
}

// perLayer come from the traced pass, the probes that follow it, and (the
// runtime.* and harness.* rows) the untraced passes of the same run. A layer
// a workload does not use reports 0.
var perLayer = []metricDef{
	{"set.insert_p50_ns", "ns", "lower", 0},
	{"set.delete_p50_ns", "ns", "lower", 0},
	{"set.contains_p50_ns", "ns", "lower", 0},
	{"set.rq_p50_us", "us", "lower", 0},
	{"set.update_tail_ns", "ns", "lower", 0},
	{"set.contains_tail_ns", "ns", "lower", 0},
	{"set.rq_tail_us", "us", "lower", 0},
	{"set.update_time_share", "ratio", "lower", 0},
	{"set.contains_time_share", "ratio", "lower", 0},
	{"set.rq_time_share", "ratio", "lower", 0},
	{"set.rq_keys_per_rq", "count", "higher", 0},
	{"set.update_success_ratio", "ratio", "higher", 0},

	{"sharded.cross_shard_ratio", "ratio", "lower", 0},
	{"sharded.fanout_mean", "count", "lower", 0},
	{"sharded.route_ns", "ns", "lower", 0},

	{"rqprov.rq_ts_wait_share", "ratio", "lower", 0},
	{"rqprov.rq_traverse_share", "ratio", "higher", 0},
	{"rqprov.rq_announce_share", "ratio", "lower", 0},
	{"rqprov.rq_limbo_share", "ratio", "lower", 0},
	{"rqprov.limbo_visited_per_rq", "count", "lower", 0},
	{"rqprov.announce_scans_per_rq", "count", "lower", 0},
	{"rqprov.bags_skipped_ratio", "ratio", "higher", 0},
	{"rqprov.ts_shared_ratio", "ratio", "higher", 0},
	{"rqprov.fence_shared_ratio", "ratio", "higher", 0},
	{"rqprov.await_spins_per_rq", "count", "lower", 0},
	{"rqprov.dcss_retries_per_update", "count", "lower", 0},
	{"rqprov.htm_aborts_per_update", "count", "lower", 0},
	{"rqprov.pool_hit_ratio", "ratio", "higher", 0},
	{"rqprov.update_cas_ns", "ns", "lower", 0},
	{"rqprov.rq_fixed_ns", "ns", "lower", 0},
	{"rqprov.clock_advance_ns", "ns", "lower", 0},

	{"epoch.retires_per_update", "count", "lower", 0},
	{"epoch.reclaimed_per_retire", "ratio", "higher", 0},
	{"epoch.advances_per_s", "1/s", "higher", 0},
	{"epoch.rotations_per_s", "1/s", "higher", 0},
	{"epoch.peak_limbo_nodes", "count", "lower", 0},
	{"epoch.peak_limbo_bytes", "B", "lower", 0},
	{"epoch.end_limbo_nodes", "count", "lower", 0},
	{"epoch.op_pair_ns", "ns", "lower", 0},
	{"epoch.retire_ns", "ns", "lower", 0},

	{"dcss.exec_ns", "ns", "lower", 0},

	{"bundle.entries_per_update", "count", "lower", 0},
	{"bundle.pruned_per_entry", "ratio", "higher", 0},
	{"bundle.gc_passes_per_s", "1/s", "lower", 0},
	{"bundle.pending_waits_per_rq", "count", "lower", 0},
	{"bundle.entries_live", "count", "lower", 0},

	{"ds.contains_ns", "ns", "lower", 0},
	{"ds.update_ns", "ns", "lower", 0},
	{"ds.scan_ns_per_key", "ns", "lower", 0},

	{"trace.overhead_ratio", "ratio", "higher", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_share", "ratio", "lower", 0},
	{"runtime.gc_pause_max_us", "us", "lower", 0},
	{"runtime.heap_objects", "count", "lower", 0},

	{"harness.pass_spread", "ratio", "lower", 0},
	{"harness.window_cv", "ratio", "lower", 0},
	{"harness.samples_update", "count", "higher", 0},
	{"harness.samples_rq", "count", "higher", 0},
}
