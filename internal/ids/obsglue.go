package ids

import (
	"runtime"
	"strconv"
	"sync"

	"ids/internal/mpp"
	"ids/internal/obs"
)

// Version identifies the build on ids_build_info (override with
// -ldflags "-X ids/internal/ids.Version=v1.2.3").
var Version = "dev"

// This file wires the engine into the observability layer: a
// per-engine metrics registry with pre-resolved handles for the hot
// query path (so instrumentation is a handful of atomic adds, not map
// lookups).

// engineMetrics caches registry handles for the query path.
type engineMetrics struct {
	reg *obs.Registry

	queries      *obs.Counter
	queryErrors  *obs.Counter
	rowsReturned *obs.Counter
	updates      *obs.Counter

	queryDuration  *obs.Histogram // wall-clock latency histogram
	queryVTSeconds *obs.Histogram // simulated makespan

	collectives *obs.Counter
	commBytes   *obs.Counter
	commSeconds *obs.Counter

	rebalanceMoved *obs.Counter

	vecSearchSeconds *obs.Histogram // SIMILAR top-k search latency
	vecVisited       *obs.Counter   // distance evaluations during SIMILAR searches
	vecUpserts       *obs.Counter   // vector upserts applied

	queryAllocBytes *obs.Histogram // per-query physical allocation histogram
	allocBytesTotal *obs.Counter
	mallocsTotal    *obs.Counter
	cpuSecondsTotal *obs.Counter

	// buildInfoOnce guards ids_build_info: the gauge's labels are
	// immutable once exported (the registry has no series deletion), so
	// only the first SetBuildInfo wins.
	buildInfoOnce sync.Once
}

// DefAllocBuckets spans 4KiB .. 16GiB quadrupling per bucket — wide
// enough for point lookups and multi-gigabyte analytical queries.
var DefAllocBuckets = obs.ExpBuckets(4096, 4, 12)

// vtBuckets spans 1µs .. ~18min of simulated makespan quadrupling per
// bucket: from the sub-millisecond scan microbenchmarks to the paper's
// docking-heavy NCNPR workflow (tens of seconds at 64-256 nodes).
var vtBuckets = obs.ExpBuckets(1e-6, 4, 16)

func newEngineMetrics() *engineMetrics {
	reg := obs.NewRegistry()
	reg.Describe("ids_queries_total", "Queries executed by this engine.")
	reg.Describe("ids_query_errors_total", "Queries that failed to parse, plan or execute.")
	reg.Describe("ids_rows_returned_total", "Result rows returned to clients.")
	reg.Describe("ids_updates_total", "Update statements applied.")
	reg.Describe("ids_graph_triples", "Triples in the loaded graph, read at scrape time.")
	reg.Describe("ids_graph_terms", "Terms in the graph's dictionary, read at scrape time.")
	reg.Describe("ids_query_duration_seconds", "Wall-clock query latency histogram.")
	reg.Describe("ids_query_vt_seconds", "Simulated (virtual-clock) query makespan histogram.")
	reg.Describe("mpp_collectives_total", "Collective synchronizations across all queries.")
	reg.Describe("mpp_comm_bytes_total", "Payload bytes exchanged by collectives.")
	reg.Describe("mpp_comm_seconds_total", "Alpha-beta modeled communication seconds (max over ranks, summed over queries).")
	reg.Describe("ids_phase_vt_seconds_total", "Per-phase bottleneck virtual seconds, summed over queries.")
	reg.Describe("exec_op_rows_in_total", "Operator input rows (traced queries), summed over ranks.")
	reg.Describe("exec_op_rows_out_total", "Operator output rows (traced queries), summed over ranks.")
	reg.Describe("exec_op_vt_seconds_total", "Operator virtual seconds (traced queries), max over ranks per query.")
	reg.Describe("exec_rebalance_rows_moved_total", "Rows migrated between ranks by solution re-balancing.")
	reg.Describe("udf_execs_total", "UDF executions (merged over ranks).")
	reg.Describe("udf_seconds_total", "UDF virtual seconds (merged over ranks).")
	reg.Describe("udf_rejections_total", "Solutions rejected because of a UDF result.")
	reg.Describe("ids_wal_appends_total", "Records appended to the write-ahead log.")
	reg.Describe("ids_wal_fsyncs_total", "fsync calls issued by the write-ahead log.")
	reg.Describe("ids_wal_bytes_total", "Bytes appended to the write-ahead log.")
	reg.Describe("ids_checkpoints_total", "Snapshot checkpoints completed.")
	reg.Describe("ids_checkpoint_errors_total", "Snapshot checkpoints that failed.")
	reg.Describe("ids_checkpoint_last_lsn", "Last LSN covered by the most recent checkpoint.")
	reg.Describe("ids_recovery_segments_scanned", "WAL segments scanned during the last startup recovery.")
	reg.Describe("ids_recovery_records_replayed", "WAL records replayed during the last startup recovery.")
	reg.Describe("ids_recovery_torn_tail_truncations", "Torn WAL tails repaired during the last startup recovery.")
	reg.Describe("ids_recovery_last_lsn", "Last LSN recovered at startup (snapshot + replay).")
	reg.Describe("ids_wal_fsync_seconds", "WAL fsync duration histogram.")
	reg.Describe("ids_degraded", "1 when the engine is read-only degraded after a WAL failure, else 0.")
	reg.Describe("ids_checkpoint_duration_seconds", "Checkpoint duration histogram (snapshot + manifest swap + log truncation).")
	reg.Describe("ids_query_alloc_bytes", "Per-query physical heap allocation (runtime/metrics delta) histogram.")
	reg.Describe("ids_query_alloc_bytes_total", "Physical heap bytes allocated during query execution (runtime/metrics deltas, summed).")
	reg.Describe("ids_query_mallocs_total", "Heap objects allocated during query execution (runtime/metrics deltas, summed).")
	reg.Describe("ids_query_cpu_seconds_total", "Measured operator CPU-proxy seconds summed over ranks (traced queries).")
	reg.Describe("ids_op_alloc_bytes_total", "Operator-accounted heap bytes by operator (traced queries), summed over ranks.")
	reg.Describe("ids_op_mallocs_total", "Operator-accounted heap objects by operator (traced queries), summed over ranks.")
	reg.Describe("ids_op_cpu_seconds_total", "Operator CPU-proxy seconds by operator (traced queries), summed over ranks.")
	reg.Describe("ids_build_info", "Build metadata; always 1. Labels carry version, Go version, GOMAXPROCS and fsync policy.")
	reg.Describe("ids_vector_search_seconds", "SIMILAR top-k vector search latency histogram (one observation per query-level search).")
	reg.Describe("ids_vector_visited_nodes_total", "Distance evaluations performed by SIMILAR vector searches.")
	reg.Describe("ids_vector_upserts_total", "Vector upserts applied (live updates plus WAL replay).")
	reg.Describe("ids_flightrec_captures_total", "Flight-recorder captures (budget-breaching queries with profiles pinned).")
	reg.Describe("ids_flightrec_suppressed_total", "Flight-recorder captures suppressed by the rate limit.")
	obs.RegisterRuntimeCollectors(reg)
	reg.Gauge("ids_degraded").Set(0) // exported from the start, flips on markDegraded
	return &engineMetrics{
		reg:              reg,
		queries:          reg.Counter("ids_queries_total"),
		queryErrors:      reg.Counter("ids_query_errors_total"),
		rowsReturned:     reg.Counter("ids_rows_returned_total"),
		updates:          reg.Counter("ids_updates_total"),
		queryDuration:    reg.Histogram("ids_query_duration_seconds", nil),
		queryVTSeconds:   reg.Histogram("ids_query_vt_seconds", vtBuckets),
		collectives:      reg.Counter("mpp_collectives_total"),
		commBytes:        reg.Counter("mpp_comm_bytes_total"),
		commSeconds:      reg.Counter("mpp_comm_seconds_total"),
		rebalanceMoved:   reg.Counter("exec_rebalance_rows_moved_total"),
		vecSearchSeconds: reg.Histogram("ids_vector_search_seconds", nil),
		vecVisited:       reg.Counter("ids_vector_visited_nodes_total"),
		vecUpserts:       reg.Counter("ids_vector_upserts_total"),
		queryAllocBytes:  reg.Histogram("ids_query_alloc_bytes", DefAllocBuckets),
		allocBytesTotal:  reg.Counter("ids_query_alloc_bytes_total"),
		mallocsTotal:     reg.Counter("ids_query_mallocs_total"),
		cpuSecondsTotal:  reg.Counter("ids_query_cpu_seconds_total"),
	}
}

// observeQuery records one successful query into the registry. ru is
// the query's resource attribution (never nil on the engine path); the
// wall and allocation histograms pin the trace ID as an exemplar so a
// slow or allocation-heavy bucket links back to its trace.
func (m *engineMetrics) observeQuery(res *Result, rep *mpp.Report, wall float64, ru *obs.ResourceUsage) {
	traceID := ""
	if res.Trace != nil {
		traceID = res.Trace.ID
	}
	m.queries.Inc()
	m.queryDuration.ObserveExemplar(wall, traceID)
	m.queryVTSeconds.Observe(rep.Makespan)
	m.rowsReturned.Add(float64(len(res.Rows)))
	m.collectives.Add(float64(rep.Comm.Collectives))
	m.commBytes.Add(float64(rep.Comm.Bytes))
	m.commSeconds.Add(rep.Comm.Seconds)
	for phase, v := range rep.Phases {
		m.reg.Counter("ids_phase_vt_seconds_total", "phase", phase).Add(v)
	}
	if ru != nil {
		m.queryAllocBytes.ObserveExemplar(float64(ru.AllocBytes), traceID)
		m.allocBytesTotal.Add(float64(ru.AllocBytes))
		m.mallocsTotal.Add(float64(ru.Mallocs))
		m.cpuSecondsTotal.Add(ru.CPUSeconds)
	}
	if res.Trace == nil {
		return
	}
	for _, op := range res.Trace.Ops {
		m.reg.Counter("exec_op_rows_in_total", "op", op.Op).Add(float64(op.RowsIn))
		m.reg.Counter("exec_op_rows_out_total", "op", op.Op).Add(float64(op.RowsOut))
		m.reg.Counter("exec_op_vt_seconds_total", "op", op.Op).Add(op.VTMax)
		m.reg.Counter("ids_op_alloc_bytes_total", "op", op.Op).Add(float64(op.AllocBytes))
		m.reg.Counter("ids_op_mallocs_total", "op", op.Op).Add(float64(op.Mallocs))
		m.reg.Counter("ids_op_cpu_seconds_total", "op", op.Op).Add(op.CPUSeconds)
	}
}

// SetBuildInfo exports the ids_build_info gauge (value always 1) with
// the build's identifying labels. First call wins: the registry keys
// series by label values, so later calls with a different fsync policy
// would export a second series instead of replacing the first.
func (e *Engine) SetBuildInfo(fsyncPolicy string) {
	e.met.buildInfoOnce.Do(func() {
		e.met.reg.Gauge("ids_build_info",
			"version", Version,
			"go_version", runtime.Version(),
			"gomaxprocs", strconv.Itoa(runtime.GOMAXPROCS(0)),
			"fsync", fsyncPolicy,
		).Set(1)
	})
}
