package main

// The benchmark's vocabulary: every workload and metric name the
// program can print. BENCHMARK.json at the repository root repeats it
// for the driver; spec_test.go fails when the two disagree.

// workloadSpec names one traffic mix and records why it exists.
type workloadSpec struct {
	Name string
	Why  string
}

var workloads = []workloadSpec{
	{"interactive_mix", "40% point, 25% join, 10% optional, 10% aggregate, 15% SIMILAR; ~1 ms answers of <=20 rows, so per-query fixed cost (client, HTTP, handler, mpp world spin-up, obs, parse/plan) dominates"},
	{"bulk_export", "one 3-pattern join returning all ~5,000 unreviewed proteins with 240-char sequences (~1.6 MB JSON); scan/join/gather, Strings decode and JSON encode/decode dominate, fixed cost <2%"},
	{"ncnpr_screen", "the paper's inner query at SW thresholds 0.2/0.4/0.5/0.99 over 30k sequences; UDF FILTER chain, reordering and re-balancing dominate, encoding <1%"},
	{"read_write", "50% point, 30% join, 10% aggregate, 10% INSERT/DELETE DATA on a durable fsync=always instance; writer lock, WAL fsync, stats rebuild and checkpoints stall readers; then relaunch + durability check"},
}

// metricSpec names one reported number. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd is measured with probes off: 2 closed-loop clients through
// ids.Client over loopback.
//
// The time-based bounds are the driver's maximum, not the 5-15% the
// issue asked for: on the shared 2-core box the baseline was taken on,
// the speed of the box itself drifts by 10-20% over minutes (process
// CPU per op moves with it, on identical work), and a bound under the
// run-to-run spread would call noise a regression. README.md gives the
// measured spreads. Allocation per op repeats to within 1.3%; the live
// heap of read_write grows with the inserts a run got through (2.2%).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.10},
}

// perLayer is measured in the traced run: 1 client, every sampled op
// re-executed through each public entry point below it.
var perLayer = []metricSpec{
	{"client.roundtrip_us", "us", "lower", 0},
	{"client.roundtrip_alloc_b", "B", "lower", 0},
	{"client.self_us", "us", "lower", 0},
	{"server.handle_us", "us", "lower", 0},
	{"server.handle_alloc_b", "B", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.response_bytes", "B", "lower", 0},
	{"server.rejected_per_op", "count", "lower", 0},
	{"engine.query_us", "us", "lower", 0},
	{"engine.query_alloc_b", "B", "lower", 0},
	{"engine.query_traced_us", "us", "lower", 0},
	{"engine.query_traced_alloc_b", "B", "lower", 0},
	{"engine.query_self_us", "us", "lower", 0},
	{"obs.trace_overhead_us", "us", "lower", 0},
	{"obs.readallocs_pair_us", "us", "lower", 0},
	{"obs.insights_observe_us", "us", "lower", 0},
	{"sparql.parse_us", "us", "lower", 0},
	{"sparql.parse_alloc_b", "B", "lower", 0},
	{"sparql.parse_update_us", "us", "lower", 0},
	{"plan.build_us", "us", "lower", 0},
	{"plan.build_alloc_b", "B", "lower", 0},
	{"plan.stats_rebuild_us", "us", "lower", 0},
	{"engine.execute_us", "us", "lower", 0},
	{"engine.execute_alloc_b", "B", "lower", 0},
	{"engine.exec_self_us", "us", "lower", 0},
	{"mpp.world_spinup_us", "us", "lower", 0},
	{"mpp.world_spinup_alloc_b", "B", "lower", 0},
	{"mpp.allgather_us", "us", "lower", 0},
	{"mpp.collectives_per_op", "count", "lower", 0},
	{"mpp.comm_bytes_per_op", "B", "lower", 0},
	{"mpp.sim_makespan_s", "s", "lower", 0},
	{"exec.scan_us", "us", "lower", 0},
	{"exec.hashjoin_us", "us", "lower", 0},
	{"exec.gather_us", "us", "lower", 0},
	{"exec.filter_udf_us", "us", "lower", 0},
	{"exec.rows_examined_per_row", "count", "lower", 0},
	{"udf.execs_per_op", "count", "lower", 0},
	{"udf.call_memo_ns", "ns", "lower", 0},
	{"ids.decode_rows_us", "us", "lower", 0},
	{"ids.decode_rows_alloc_b", "B", "lower", 0},
	{"ids.decode_ns_per_cell", "ns", "lower", 0},
	{"ids.encode_json_us", "us", "lower", 0},
	{"ids.encode_json_alloc_b", "B", "lower", 0},
	{"vecstore.search_hnsw_us", "us", "lower", 0},
	{"vecstore.search_brute_us", "us", "lower", 0},
	{"vecstore.visited_per_search", "count", "lower", 0},
	{"vecstore.recall_at_10", "ratio", "higher", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsyncs_per_update", "count", "lower", 0},
	{"wal.bytes_per_update", "B", "lower", 0},
	{"engine.update_us", "us", "lower", 0},
	{"engine.update_alloc_b", "B", "lower", 0},
	{"engine.update_self_us", "us", "lower", 0},
	{"ids.checkpoint_s", "s", "lower", 0},
	{"ids.checkpoints_in_run", "count", "lower", 0},
	{"ids.recovery_replayed", "count", "lower", 0},
	{"kg.insert_us", "us", "lower", 0},
	{"kg.live_bytes_per_triple", "B", "lower", 0},
	{"update_p50_ms", "ms", "lower", 0},
	{"update_p95_ms", "ms", "lower", 0},
	{"recovery_s", "s", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.ledger_coverage", "ratio", "higher", 0},
}
