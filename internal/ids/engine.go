// Package ids is the framework facade of the Intelligent Data Search
// reproduction: the Engine combines the knowledge graph, the UDF
// registry with its dynamic-module loader, and the MPP runtime into a
// queryable backend; the Launcher/Agent/Client/HTTP layers mirror the
// paper's deployment components (Datastore Launcher, Datastore Agent,
// Datastore Client, IDS backend).
package ids

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"ids/internal/dict"
	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/obs/insights"
	"ids/internal/plan"
	"ids/internal/script"
	"ids/internal/sparql"
	"ids/internal/udf"
	"ids/internal/vecstore"
	"ids/internal/wal"
)

// Options tunes query execution; the zero value enables the paper's
// optimizations.
type Options struct {
	// Reorder enables §2.4.3 FILTER conjunct reordering.
	Reorder bool
	// Rebalance selects §2.4.2 solution re-balancing before FILTERs.
	Rebalance exec.RebalanceMode
	// SpeedFactor models heterogeneous node speeds per rank (nil =
	// homogeneous).
	SpeedFactor func(rank int) float64
}

// DefaultOptions enables reordering and cost-aware re-balancing.
func DefaultOptions() Options {
	return Options{Reorder: true, Rebalance: exec.RebalanceCost}
}

// Engine is one running IDS backend instance.
//
// Concurrency contract (snapshot isolation): Engine IS safe for
// concurrent read queries. Query/Execute take the read half of an
// RWMutex and read the sealed graph, dictionary and vector stores
// read-only; any number of MPP worlds may run at once. Update takes
// the exclusive writer lock, mutates the graph, swaps in fresh
// (immutable-after-build) planner statistics, and bumps the atomic
// update epoch — so readers observe either the pre- or post-update
// graph, never a mix. Per-rank UDF profiles are read through
// per-query overlay profilers and merged back after the run, so
// concurrent queries never contend on them mid-flight. Setup calls
// (AttachVectors, AttachWAL) are writer-locked; accessors (Strings,
// MergedProfile, Metrics) are safe concurrently with running queries.
type Engine struct {
	Graph  *kg.Graph
	Reg    *udf.Registry
	Loader *script.Loader
	Topo   mpp.Topology
	Net    mpp.NetModel
	Seed   int64
	Opts   Options

	// mu implements snapshot isolation: queries hold the read lock
	// for their whole execution (acquired once by the coordinating
	// goroutine, never by rank goroutines, so MPP barriers cannot
	// deadlock against a waiting writer); Update holds the write lock.
	mu sync.RWMutex
	// stats is the planner's cardinality statistics. A *plan.Stats is
	// immutable after build; Update swaps in a fresh one atomically so
	// concurrent planners never observe a partially rebuilt snapshot.
	stats     atomic.Pointer[plan.Stats]
	profilers []*udf.Profiler
	// vectors holds attached vector stores (see vectors.go).
	vectors map[string]*vecstore.Store
	// updates counts applied update statements — the engine's update
	// epoch, stamped on each WAL record.
	updates atomic.Int64
	// wal, when set, makes updates durable: Update appends the record
	// (synced per the log's fsync policy) before mutating the graph.
	wal *wal.Log
	// walNotify, when set, is called after each durable update so the
	// background checkpointer can react to update volume.
	walNotify func()
	// met is the engine's metrics registry plus hot-path handles.
	met *engineMetrics
	// degraded, when non-nil, is the reason the engine entered
	// read-only degraded mode (a WAL append or fsync failure). Queries
	// keep running against the in-memory graph; updates fail fast with
	// ErrDegraded, /readyz turns 503, and ids_degraded reads 1. The
	// transition is one-way: only a restart (with a repaired log) clears
	// it.
	degraded atomic.Pointer[string]
	// workload is the insights observatory: per-fingerprint rolling
	// statistics and the tail-sampling decision for every query (never
	// nil; see ConfigureInsights).
	workload atomic.Pointer[insights.Observatory]
	// log is the engine's structured logger (never nil; defaults to the
	// nop logger). Query-path records carry the qid from the context.
	log atomic.Pointer[slog.Logger]
	// arenas recycles columnar execution arenas across queries, keyed
	// by the server's admission slot so a slot's working set stays warm
	// (see exec.ArenaPool).
	arenas *exec.ArenaPool
	// cres memoizes ID→Value resolution over the append-only
	// dictionary (safe across updates: IDs are immutable).
	cres *expr.CachedResolver
}

// NewEngine wires an engine over a sealed graph. The graph must have
// exactly one shard per rank.
func NewEngine(g *kg.Graph, topo mpp.Topology) (*Engine, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if g.NumShards() != topo.Size() {
		return nil, fmt.Errorf("ids: graph has %d shards but topology has %d ranks",
			g.NumShards(), topo.Size())
	}
	e := &Engine{
		Graph:  g,
		Reg:    udf.NewRegistry(),
		Loader: script.NewLoader(),
		Topo:   topo,
		Net:    mpp.DefaultNet(),
		Seed:   1,
		Opts:   DefaultOptions(),
		met:    newEngineMetrics(),
		arenas: exec.NewArenaPool(),
	}
	e.cres = expr.NewCachedResolver(expr.DictResolver{Dict: g.Dict})
	e.rebuildStatsLocked()
	e.log.Store(obs.NopLogger())
	e.workload.Store(insights.New(insights.Config{}))
	e.profilers = make([]*udf.Profiler, topo.Size())
	for i := range e.profilers {
		e.profilers[i] = udf.NewProfiler()
	}
	// Mirror the graph's size and the merged UDF profile into the
	// registry at scrape time, making /metrics the single source of
	// truth for both. The sizes are read under the engine read lock, so
	// a scrape never races an Update mutating the graph.
	e.met.reg.AddCollector(func(r *obs.Registry) {
		e.mu.RLock()
		triples, terms := e.Graph.Len(), e.Graph.Dict.Len()
		e.mu.RUnlock()
		r.Gauge("ids_graph_triples").Set(float64(triples))
		r.Gauge("ids_graph_terms").Set(float64(terms))
		for name, s := range e.MergedProfile().Snapshot() {
			r.Counter("udf_execs_total", "udf", name).Set(float64(s.Execs))
			r.Counter("udf_seconds_total", "udf", name).Set(s.TotalSeconds)
			r.Counter("udf_rejections_total", "udf", name).Set(float64(s.Rejections))
		}
	})
	return e, nil
}

// Metrics returns the engine's metrics registry (exposed by the
// server's /metrics endpoint). Scraping is safe at any time except
// while holding the engine lock: counters are atomic, the graph-size
// collector takes the read lock, and the UDF-profile collector reads
// the internally synchronized per-rank profilers.
func (e *Engine) Metrics() *obs.Registry { return e.met.reg }

// SetLogger wires the engine's structured logger (nil resets to the
// nop logger). Safe to call while queries run.
func (e *Engine) SetLogger(l *slog.Logger) { e.log.Store(obs.OrNop(l)) }

// Logger returns the engine's structured logger (never nil).
func (e *Engine) Logger() *slog.Logger { return e.log.Load() }

// Insights returns the workload observatory (never nil): the
// per-fingerprint heavy-hitter statistics and tail-sampling decisions
// accumulated over every query this engine ran.
func (e *Engine) Insights() *insights.Observatory { return e.workload.Load() }

// ConfigureInsights replaces the workload observatory with one built
// from cfg (called by the serving layer to align tail thresholds with
// the slow-query budgets). Resets accumulated statistics.
func (e *Engine) ConfigureInsights(cfg insights.Config) {
	e.workload.Store(insights.New(cfg))
}

// Result is a completed query.
type Result struct {
	Vars   []string
	Rows   [][]expr.Value
	Report *mpp.Report
	Plan   *plan.Plan
	// Trace is the query's span trace (nil unless the query ran through
	// QueryTraced/QueryTracedCtx).
	Trace *obs.QueryTrace
	// Tail is the tail-sampling verdict the workload observatory made
	// for this query: whether the full trace is worth retaining, and
	// why.
	Tail insights.Decision
}

// appendCell appends a row value's display form to dst — a term's
// N-Triples syntax, a computed value's literal form — raw, or (js) as
// the JSON string literal that decodes to it. Strings and the /query
// response writer both render through it.
func appendCell(dst []byte, terms dict.Terms, v expr.Value, js bool) []byte {
	if v.Kind == expr.KindID {
		if t, ok := terms.Decode(v.ID); ok {
			if js {
				return t.AppendJSON(dst)
			}
			return t.AppendString(dst)
		}
	}
	if js {
		return dict.AppendJSONString(dst, v.String())
	}
	return append(dst, v.String()...)
}

// Strings decodes all rows. The dictionary is append-only and every ID
// in a result was assigned before the result existed, so one snapshot
// of it serves the whole table without the engine lock.
func (e *Engine) Strings(res *Result) [][]string {
	terms := e.Graph.Dict.Snapshot()
	out := make([][]string, len(res.Rows))
	var buf []byte
	for i, row := range res.Rows {
		sr := make([]string, len(row))
		for j, v := range row {
			buf = appendCell(buf[:0], terms, v, false)
			sr[j] = string(buf)
		}
		out[i] = sr
	}
	return out
}

// SnapshotTo streams the graph's binary snapshot under the engine read
// lock, so no update can mutate the graph mid-stream.
func (e *Engine) SnapshotTo(w io.Writer) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.Graph.Save(w)
}

// AttachWAL makes the engine durable: every subsequent Update appends
// its record to l (append-then-apply, under the writer lock) before
// mutating the graph, and the log's append/fsync/byte counters are
// mirrored into /metrics at scrape time. Attach after replaying the
// log (see replayWAL), so recovered records are not re-appended.
func (e *Engine) AttachWAL(l *wal.Log) {
	e.mu.Lock()
	e.wal = l
	e.mu.Unlock()
	fsyncHist := e.met.reg.Histogram("ids_wal_fsync_seconds", nil)
	l.SetFsyncObserver(fsyncHist.Observe)
	e.met.reg.AddCollector(func(r *obs.Registry) {
		st := l.Stats()
		r.Counter("ids_wal_appends_total").Set(float64(st.Appends))
		r.Counter("ids_wal_fsyncs_total").Set(float64(st.Fsyncs))
		r.Counter("ids_wal_bytes_total").Set(float64(st.AppendedBytes))
	})
}

// setWALNotify registers the checkpointer's update hook (must not
// block; called with the writer lock held).
func (e *Engine) setWALNotify(fn func()) {
	e.mu.Lock()
	e.walNotify = fn
	e.mu.Unlock()
}

// ErrDegraded reports an update rejected because the engine is in
// read-only degraded mode after a WAL failure.
var ErrDegraded = errors.New("ids: engine degraded (read-only): WAL failed")

// Degraded reports whether the engine is in read-only degraded mode
// and, if so, the reason.
func (e *Engine) Degraded() (string, bool) {
	if r := e.degraded.Load(); r != nil {
		return *r, true
	}
	return "", false
}

// markDegraded flips the engine into read-only degraded mode (one-way;
// the first reason wins). Queries keep serving from memory; updates,
// checkpoints, and readiness all refuse until restart.
func (e *Engine) markDegraded(reason string) {
	if !e.degraded.CompareAndSwap(nil, &reason) {
		return
	}
	e.met.reg.Gauge("ids_degraded").Set(1)
	e.Logger().Error("engine degraded: updates disabled, serving reads only",
		"reason", reason)
}

// Query parses, plans and executes a query across all ranks, returning
// the gathered result and the timing report. Safe for concurrent use;
// queries run under the engine's read lock (see the concurrency
// contract above).
func (e *Engine) Query(qs string) (*Result, error) {
	return e.QueryCtx(context.Background(), qs)
}

// QueryCtx is Query with a caller context: the context's qid (see
// obs.WithQID) becomes the trace ID and stamps every log record the
// query emits, tying the log stream, /traces, and the response together.
func (e *Engine) QueryCtx(ctx context.Context, qs string) (*Result, error) {
	start := time.Now()
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queryLocked(ctx, qs, false, start, nil)
}

// QueryStage is QueryCtx followed, in the same world, by a per-rank
// stage over the gathered answer: once the plan has run, every rank
// calls stage with the table (the same read-only table on every rank),
// so a workflow step such as docking is one query — its charges and
// phases land in the Report, the metrics and the insights observation,
// and a stage error fails the query like an operator error. The stage
// runs under the engine read lock, so a writer waits for the whole
// world, stage included.
func (e *Engine) QueryStage(ctx context.Context, qs string, stage func(*mpp.Rank, *exec.Table) error) (*Result, error) {
	start := time.Now()
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queryLocked(ctx, qs, false, start, stage)
}

// QueryTraced is Query with span tracing forced on for this one call;
// Result.Trace carries the collected trace.
func (e *Engine) QueryTraced(qs string) (*Result, error) {
	return e.QueryTracedCtx(context.Background(), qs)
}

// QueryTracedCtx is QueryCtx with span tracing forced on.
func (e *Engine) QueryTracedCtx(ctx context.Context, qs string) (*Result, error) {
	start := time.Now()
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.queryLocked(ctx, qs, true, start, nil)
}

// queryLocked runs one query, then stage (nil = none; see QueryStage);
// the caller holds the engine read lock. start is taken before the
// lock, so time spent waiting behind a writer counts toward the query's
// wall time and its tail verdict.
func (e *Engine) queryLocked(ctx context.Context, qs string, traced bool, start time.Time, stage func(*mpp.Rank, *exec.Table) error) (*Result, error) {
	parseStart := time.Now()
	q, err := sparql.Parse(qs)
	if err != nil {
		e.met.queryErrors.Inc()
		// Unparseable queries share fingerprint 0: still counted, so a
		// flood of garbage shows up as one hot (error-only) shape.
		e.observeWorkload(ctx, insights.Observation{
			Query: qs, Seconds: time.Since(start).Seconds(), Error: true,
		})
		e.Logger().ErrorContext(ctx, "query parse failed", "err", err)
		return nil, err
	}
	return e.execute(ctx, q, traced, qs, start, time.Since(parseStart).Seconds(), stage)
}

// Execute runs a parsed query.
func (e *Engine) Execute(q *sparql.Query) (*Result, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.execute(context.Background(), q, false, "", time.Now(), 0, nil)
}

func (e *Engine) execute(ctx context.Context, q *sparql.Query, traced bool, qs string, start time.Time, parseSec float64, stage func(*mpp.Rank, *exec.Table) error) (*Result, error) {
	lg := e.Logger()
	// Bracket the query with the runtime's cumulative allocation
	// counters: the completion delta is the query's physical resource
	// attribution. Process-global, so concurrent neighbours
	// over-attribute — see obs.ResourceUsage.
	alloc0 := obs.ReadAllocs()
	planStart := time.Now()
	pl, err := plan.Build(q, e.stats.Load())
	var pp *physPlan
	if err == nil {
		pp, err = e.physical(pl, traced)
	}
	if err != nil {
		e.met.queryErrors.Inc()
		e.observeWorkload(ctx, insights.Observation{
			Fingerprint: plan.Fingerprint(q), Query: qs,
			Seconds: time.Since(start).Seconds(), Error: true,
		})
		lg.ErrorContext(ctx, "query plan failed", "err", err)
		return nil, err
	}
	planSec := time.Since(planStart).Seconds()
	lg.DebugContext(ctx, "query planned",
		"parse_seconds", parseSec, "plan_seconds", planSec, "traced", traced)

	var recs []*obs.RankRecorder
	if traced {
		recs = make([]*obs.RankRecorder, e.Topo.Size())
		for i := range recs {
			recs[i] = obs.NewRankRecorder(i)
		}
	}

	// Per-query overlay profilers: ranks record into them without
	// contending with concurrent queries; estimator reads see the
	// persistent per-rank history plus this query's own records.
	qprofs := make([]*udf.Profiler, e.Topo.Size())
	for i := range qprofs {
		qprofs[i] = udf.NewProfilerOver(e.profilers[i])
	}

	// Arenas: acquired for the whole world before the rank goroutines
	// start and returned only after mpp.Run has joined them all, so a
	// recycled arena can never be reset while a rank still writes into
	// it. Keyed by the admission slot (when the server path put one in
	// the context) so a slot's warm working set follows it.
	slot := slotFrom(ctx)
	arenas := e.arenas.Get(slot, e.Topo.Size())
	defer e.arenas.Put(slot, arenas)

	execStart := time.Now()
	var answer *exec.Table // every rank gets the same table back; the root keeps it
	report, err := mpp.RunCtx(ctx, e.Topo, e.Net, e.Seed, func(r *mpp.Rank) error {
		var rec *obs.RankRecorder
		if recs != nil {
			rec = recs[r.ID()]
		}
		tab, err := e.runPlanRec(r, pp, rec, qprofs, arenas)
		if r.ID() == exec.RootRank {
			answer = tab
		}
		if err == nil && stage != nil {
			err = stage(r, tab)
		}
		return err
	})
	// Fold the query's profiling deltas into the persistent per-rank
	// profiles (even on error: partial executions still inform cost
	// estimates, as they did when profiles were recorded in place).
	for i, qp := range qprofs {
		if snap := qp.Snapshot(); len(snap) > 0 {
			e.profilers[i].Merge(snap)
		}
	}
	if err != nil {
		e.met.queryErrors.Inc()
		allocB, _ := obs.ReadAllocs().DeltaSince(alloc0)
		e.observeWorkload(ctx, insights.Observation{
			Fingerprint: pl.Fingerprint, Query: qs,
			Seconds: time.Since(start).Seconds(), AllocBytes: allocB, Error: true,
		})
		lg.ErrorContext(ctx, "query execution failed", "err", err,
			"wall_seconds", time.Since(start).Seconds())
		return nil, err
	}
	res := &Result{Vars: answer.Vars, Rows: answer.Rows, Report: report, Plan: pl}
	wall := time.Since(start).Seconds()
	allocB, allocM := obs.ReadAllocs().DeltaSince(alloc0)
	ru := &obs.ResourceUsage{AllocBytes: allocB, Mallocs: allocM}
	if traced {
		// The context's qid (minted at admission) is the trace ID, so
		// the log stream, GET /traces?id=, and the response share one
		// handle; engine-direct callers without a qid get a fresh one.
		id := obs.QID(ctx)
		if id == "" {
			id = obs.NewTraceID()
		}
		tr := obs.BuildTrace(id, qs, start, recs, true)
		tr.Status = "ok"
		tr.Fingerprint = plan.FormatFingerprint(pl.Fingerprint)
		if tc, ok := obs.TraceContextFrom(ctx); ok {
			tr.TraceParent = tc.String()
		}
		tr.ParseSeconds = parseSec
		tr.PlanSeconds = planSec
		tr.ExecSeconds = time.Since(execStart).Seconds()
		tr.WallSeconds = wall
		tr.Makespan = report.Makespan
		tr.Rows = len(res.Rows)
		tr.Phases = report.Phases
		tr.Collectives = report.Comm.Collectives
		tr.CommBytes = report.Comm.Bytes
		tr.CommSeconds = report.Comm.Seconds
		tr.Plan = pl.Explain()
		// Operator-local sums and the CPU proxy come from the assembled
		// per-operator aggregates.
		for _, op := range tr.Ops {
			ru.OpAllocBytes += op.AllocBytes
			ru.OpMallocs += op.Mallocs
			ru.CPUSeconds += op.CPUSeconds
		}
		tr.Resources = ru
		res.Trace = tr
	}
	e.met.observeQuery(res, report, wall, ru)
	_, degraded := e.Degraded()
	res.Tail = e.observeWorkload(ctx, insights.Observation{
		Fingerprint: pl.Fingerprint, Query: qs,
		Seconds: wall, AllocBytes: allocB, Rows: len(res.Rows), Degraded: degraded,
	})
	lg.DebugContext(ctx, "query done",
		"rows", len(res.Rows), "wall_seconds", wall, "makespan_seconds", report.Makespan)
	return res, nil
}

// observeWorkload records one finished query with the workload
// observatory, stamping the context's qid, and returns the tail
// decision.
func (e *Engine) observeWorkload(ctx context.Context, ob insights.Observation) insights.Decision {
	ob.QID = obs.QID(ctx)
	return e.workload.Load().Observe(ob)
}

// finalize turns the gathered solutions, after the post-gather
// operators (BIND columns and the filters that depend on them — exec/
// bind.go explains why BIND sits post-gather — and aggregation), into
// the answer: ORDER BY, OFFSET/LIMIT, projection. DISTINCT is over the
// projected rows, so a DISTINCT plan projects and de-duplicates (first
// occurrence kept) between the sort and the slice. It runs once per
// query, on the gather root, inside the gather (see
// exec.GatherBatchTo); the other ranks receive the table it returns.
func (e *Engine) finalize(pl *plan.Plan, tab *exec.Table, a *exec.Arena) (*exec.Table, error) {
	tab.SortBy(pl.OrderBy, e.res())
	if pl.Distinct {
		var err error
		if tab, err = tab.Project(pl.Select); err != nil {
			return nil, err
		}
		tab.Distinct(a)
	}
	if pl.Limit >= 0 || pl.Offset > 0 {
		tab = tab.Slice(pl.Offset, pl.Limit)
	}
	return tab.Project(pl.Select) // the identity for a DISTINCT plan
}

// LoadModule loads (cached) an IDscript module and registers its
// functions as dynamic UDFs.
func (e *Engine) LoadModule(name, src string) error {
	err := e.Loader.LoadAndRegister(e.Reg, name, src)
	if err != nil {
		e.Logger().Error("module load failed", "module", name, "err", err)
		return err
	}
	e.Logger().Info("module loaded", "module", name, "bytes", len(src))
	return nil
}

// ReloadModule force-reloads a module (the paper's special reload
// function for iterating on UDF code in a running instance).
func (e *Engine) ReloadModule(name, src string) error {
	err := e.Loader.ReloadAndRegister(e.Reg, name, src)
	if err != nil {
		e.Logger().Error("module reload failed", "module", name, "err", err)
		return err
	}
	e.Logger().Info("module reloaded", "module", name, "bytes", len(src))
	return nil
}

// MergedProfile aggregates all rank profiles (for reports and the
// profile endpoint).
func (e *Engine) MergedProfile() *udf.Profiler {
	merged := udf.NewProfiler()
	for _, p := range e.profilers {
		merged.Merge(p.Snapshot())
	}
	return merged
}

// WhatIs is the paper's "what-is" convenience: a point lookup of all
// triples about a subject IRI.
func (e *Engine) WhatIs(subjectIRI string) (*Result, error) {
	return e.Query(fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o . }", subjectIRI))
}

// interface check: the engine's dictionary resolver is an expr.Resolver.
var _ expr.Resolver = expr.DictResolver{Dict: (*dict.Dict)(nil)}
