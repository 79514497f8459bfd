package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"ids/internal/dict"
	"ids/internal/ids"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/obs/insights"
	"ids/internal/plan"
	"ids/internal/sparql"
	"ids/internal/synth"
	"ids/internal/wal"
)

// span is one timed call into a layer's public entry point. Spans of
// one op share op_id; parent names the span whose interval the call
// would fall inside on the serving path. Parent and child are separate
// executions of the same op on a warm engine, so self time is a
// difference of per-class medians, not of one op's spans.
type span struct {
	Workload string `json:"workload"`
	OpID     int    `json:"op_id"`
	Class    string `json:"class"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	AllocB   int64  `json:"alloc_b"`
	Rows     int    `json:"rows"`
}

// layer is one node of the span tree: a public entry point the traced
// run calls on its own.
type layer struct {
	span, parent string
	// self names the metric that reports the span minus its children;
	// a layer without children has none (its whole span is its own).
	self string
	// alloc: the span's allocation delta is reported as <span>_alloc_b.
	alloc bool
	// aside: measured for its own sake and left inside its parent's
	// self time, where the program runs it.
	aside bool
}

// layers declares the tree once; parents, children, ledger leaves and
// the metric names all derive from it.
var layers = []layer{
	{span: "client.roundtrip", self: "client.self_us", alloc: true},
	{span: "server.handle", parent: "client.roundtrip", self: "server.self_us", alloc: true},
	{span: "engine.query_traced", parent: "server.handle", self: "obs.trace_overhead_us", alloc: true},
	{span: "ids.decode_rows", parent: "server.handle", alloc: true},
	{span: "ids.encode_json", parent: "server.handle", alloc: true},
	{span: "engine.query", parent: "engine.query_traced", self: "engine.query_self_us", alloc: true},
	{span: "sparql.parse", parent: "engine.query", alloc: true},
	{span: "engine.execute", parent: "engine.query", self: "engine.exec_self_us", alloc: true},
	{span: "plan.build", parent: "engine.execute", alloc: true},
	{span: "mpp.world_spinup", parent: "engine.execute", alloc: true},
	{span: "obs.readallocs_pair", parent: "engine.execute", aside: true},
	{span: "obs.insights_observe", parent: "engine.execute", aside: true},
	{span: "engine.update", parent: "server.handle", self: "engine.update_self_us", alloc: true},
	{span: "sparql.parse_update", parent: "engine.update"},
	{span: "wal.append", parent: "engine.update"},
	{span: "plan.stats_rebuild", parent: "engine.update"},
	{span: "kg.insert", parent: "engine.update"},
}

func parentOf(span string) string {
	for _, l := range layers {
		if l.span == span {
			return l.parent
		}
	}
	return ""
}

const (
	// traceOps caps the ops sampled per traced run.
	traceOps      = 2000
	traceOpsHeavy = 300 // bulk_export and ncnpr_screen
)

// tracer records spans in memory; they are written out at exit.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	// err is the first probe failure; once set, measure does nothing,
	// so a probe sequence checks it at the points that need a result.
	err error
}

func (t *tracer) fail(o op, where string, err error) {
	if t.err == nil {
		t.err = fmt.Errorf("op %d (%s) %s: %w", o.id, o.class, where, err)
	}
}

// measure times fn as one span of op o and returns the recorded span
// (valid until the next measure) so the caller can note its row count.
// The allocation delta comes from ReadMemStats pairs kept outside the
// timed interval; it is exact because the traced run has a single
// client and an otherwise idle process.
func (t *tracer) measure(o op, name string, fn func() error) *span {
	if t.err != nil {
		return &span{}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.fail(o, "probe "+name, err)
		return &span{}
	}
	t.spans = append(t.spans, span{
		Workload: t.workload, OpID: o.id, Class: o.class, Name: name, Parent: parentOf(name),
		StartNS: int64(start.Sub(t.origin)), EndNS: int64(end.Sub(t.origin)),
		AllocB: int64(m1.TotalAlloc - m0.TotalAlloc),
	})
	return &t.spans[len(t.spans)-1]
}

// write stores the spans as trace.json in dir.
func (t *tracer) write(dir string) error {
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// classStat is one span's per-class medians.
type classStat struct {
	us, allocB float64
}

// aggregate folds the spans into medians per (span name, class).
func (t *tracer) aggregate() (stats map[string]map[string]classStat, classOps map[string]int) {
	type key struct{ name, class string }
	durs := map[key][]float64{}
	allocs := map[key][]float64{}
	classOps = map[string]int{}
	for _, s := range t.spans {
		k := key{s.Name, s.Class}
		durs[k] = append(durs[k], float64(s.EndNS-s.StartNS)/1e3)
		allocs[k] = append(allocs[k], float64(s.AllocB))
		if s.Name == "client.roundtrip" {
			classOps[s.Class]++
		}
	}
	stats = map[string]map[string]classStat{}
	for k, d := range durs {
		if stats[k.name] == nil {
			stats[k.name] = map[string]classStat{}
		}
		stats[k.name][k.class] = classStat{us: median(d), allocB: median(allocs[k])}
	}
	return stats, classOps
}

// weighted is the op-share-weighted mean of per-class values over the
// classes that have one: what the layer costs an op that passes
// through it.
func weighted(classOps map[string]int, value func(class string) (float64, bool)) float64 {
	var sum, weight float64
	for class, n := range classOps {
		if v, ok := value(class); ok {
			sum += v * float64(n)
			weight += float64(n)
		}
	}
	if weight == 0 {
		return 0
	}
	return sum / weight
}

// spanMetrics derives every span-based metric: durations, allocation,
// self times, and how much of the round trip the ledger accounts for.
// It returns the number of sampled ops per class.
func (t *tracer) spanMetrics(m map[string]float64) map[string]int {
	stats, classOps := t.aggregate()
	// self is a layer's span minus its children, by per-class medians.
	self := func(l layer, class string) float64 {
		var children []float64
		for _, c := range layers {
			if c.parent == l.span && !c.aside {
				children = append(children, stats[c.span][class].us)
			}
		}
		return selfTime(stats[l.span][class].us, children...)
	}
	for _, l := range layers {
		byClass := stats[l.span]
		m[l.span+"_us"] = weighted(classOps, func(c string) (float64, bool) { s, ok := byClass[c]; return s.us, ok })
		if l.alloc {
			m[l.span+"_alloc_b"] = weighted(classOps, func(c string) (float64, bool) { s, ok := byClass[c]; return s.allocB, ok })
		}
		if l.self != "" {
			m[l.self] = weighted(classOps, func(c string) (float64, bool) { _, ok := byClass[c]; return self(l, c), ok })
		}
	}
	// The ledger: every layer's self time partitions the round trip.
	var ledger, roundtrip float64
	for class, n := range classOps {
		for _, l := range layers {
			if !l.aside {
				ledger += self(l, class) * float64(n)
			}
		}
		roundtrip += stats["client.roundtrip"][class].us * float64(n)
	}
	if roundtrip > 0 {
		m["trace.ledger_coverage"] = ledger / roundtrip
	}
	return classOps
}

// prober re-executes ops through each layer of one instance.
type prober struct {
	sys     *system
	cat     *catalog
	t       *tracer
	client  *ids.Client
	handler http.Handler
	eng     *ids.Engine
	stats   *plan.Stats // nil after an update, rebuilt on demand
	watch   *insights.Observatory
	// Private twins for the update-path probes, so timing a WAL append
	// or a graph insert never touches the instance's own state.
	walLog *wal.Log
	graph  *kg.Graph
	serial int
	counts map[string][]float64
}

// Lane tags of the traced run: the round trip, the in-process handler
// and the engine-level probes each write their own triples.
const (
	tagRoundtrip = "tr"
	tagHandle    = "th"
	tagEngine    = "te"
)

func (p *prober) count(name string, v float64) { p.counts[name] = append(p.counts[name], v) }

func (p *prober) udfExecs() int64 {
	var n int64
	for _, s := range p.eng.MergedProfile().Snapshot() {
		n += s.Execs
	}
	return n
}

// serve times one request through the server's handler in process and
// decodes the response afterwards, outside the span.
func (p *prober) serve(o op, path string, payload, out any) {
	body, err := json.Marshal(payload)
	if err != nil {
		p.t.fail(o, "server.handle", err)
		return
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	p.t.measure(o, "server.handle", func() error {
		p.handler.ServeHTTP(rec, req)
		return nil
	})
	if rec.Code != http.StatusOK {
		p.t.fail(o, "server.handle", fmt.Errorf("%s returned %d: %s", path, rec.Code, rec.Body.String()))
		return
	}
	p.count("server.response_bytes", float64(rec.Body.Len()))
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		p.t.fail(o, "server.handle", err)
	}
}

// verify fails the run when a lane's answer to o is wrong.
func (p *prober) verify(o op, lane string, a answer) {
	if p.t.err == nil && !p.cat.check(o, a) {
		p.t.fail(o, "lane "+lane, fmt.Errorf("wrong answer to %s", o.render(lane)))
	}
}

// probeQuery records one span per layer for a query op. Answers are
// checked between spans, never inside one.
func (p *prober) probeQuery(o op) error {
	ctx := context.Background()
	t, eng := p.t, p.eng

	var resp *ids.QueryResponse
	t.measure(o, "client.roundtrip", func() (err error) {
		resp, err = p.client.Query(o.render(tagRoundtrip))
		return err
	}).Rows = o.rows
	if t.err != nil {
		return t.err
	}
	p.verify(o, tagRoundtrip, answer{rows: resp.Rows})

	var served ids.QueryResponse
	p.serve(o, "/query", ids.QueryRequest{Query: o.render(tagHandle)}, &served)
	p.verify(o, tagHandle, answer{rows: served.Rows})

	text := o.render(tagEngine)
	var res *ids.Result
	execs0 := p.udfExecs()
	t.measure(o, "engine.query_traced", func() (err error) {
		res, err = eng.QueryTracedCtx(ctx, text)
		return err
	}).Rows = o.rows
	if t.err != nil {
		return t.err
	}
	if len(res.Rows) != o.rows {
		t.fail(o, "lane "+tagEngine, fmt.Errorf("%d rows, want %d: %s", len(res.Rows), o.rows, text))
	}
	p.count("udf.execs_per_op", float64(p.udfExecs()-execs0))
	p.count("mpp.collectives_per_op", float64(res.Report.Comm.Collectives))
	p.count("mpp.comm_bytes_per_op", float64(res.Report.Comm.Bytes))
	p.count("mpp.sim_makespan_s", res.Report.Makespan)
	examined := 0
	for _, ot := range res.Trace.Ops {
		if ot.Op == "scan" {
			examined += ot.RowsOut
		}
	}
	p.count("exec.rows_examined_per_row", float64(examined)/float64(max(1, len(res.Rows))))

	t.measure(o, "engine.query", func() error {
		_, err := eng.QueryCtx(ctx, text)
		return err
	})
	var parsed *sparql.Query
	t.measure(o, "sparql.parse", func() (err error) {
		parsed, err = sparql.Parse(text)
		return err
	})
	if t.err != nil {
		return t.err
	}
	if p.stats == nil {
		p.stats = plan.StatsFromGraph(eng.Graph)
		p.stats.Vectors = map[string]int{vecStoreName: p.sys.vecs.Len()}
	}
	t.measure(o, "plan.build", func() error {
		_, err := plan.Build(parsed, p.stats)
		return err
	})
	t.measure(o, "engine.execute", func() error {
		_, err := eng.Execute(parsed)
		return err
	})
	t.measure(o, "mpp.world_spinup", func() error {
		_, err := mpp.RunCtx(ctx, benchTopo, eng.Net, eng.Seed, func(r *mpp.Rank) error { return r.Barrier() })
		return err
	})
	var decoded [][]string
	dec := t.measure(o, "ids.decode_rows", func() error {
		decoded = eng.Strings(res)
		return nil
	})
	dec.Rows = len(decoded)
	if cells := len(decoded) * len(res.Vars); cells > 0 {
		p.count("ids.decode_ns_per_cell", float64(dec.EndNS-dec.StartNS)/float64(cells))
	}
	t.measure(o, "ids.encode_json", func() error {
		return json.NewEncoder(io.Discard).Encode(ids.QueryResponse{
			QID: res.Trace.ID, TraceParent: res.Trace.TraceParent, Vars: res.Vars, Rows: decoded,
			Makespan: res.Report.Makespan, Phases: res.Report.Phases, Plan: res.Plan.Explain(),
			WallTime: res.Trace.WallSeconds, TraceID: res.Trace.ID,
			Fingerprint: plan.FormatFingerprint(res.Plan.Fingerprint),
		})
	}).Rows = len(decoded)
	t.measure(o, "obs.readallocs_pair", func() error {
		obs.ReadAllocs()
		obs.ReadAllocs()
		return nil
	})
	t.measure(o, "obs.insights_observe", func() error {
		p.watch.Observe(insights.Observation{
			Fingerprint: res.Plan.Fingerprint, Query: text, QID: res.Trace.ID,
			Seconds: res.Trace.WallSeconds, AllocBytes: res.Trace.Resources.AllocBytes, Rows: len(res.Rows),
		})
		return nil
	})
	return t.err
}

// probeUpdate records one span per layer for an update op. Every lane
// applies its own fresh triple.
func (p *prober) probeUpdate(o op) error {
	t, eng := p.t, p.eng
	p.stats = nil

	var acked *ids.UpdateResult
	t.measure(o, "client.roundtrip", func() (err error) {
		acked, err = p.client.Update(o.render(tagRoundtrip))
		return err
	})
	if t.err != nil {
		return t.err
	}
	p.verify(o, tagRoundtrip, answer{applied: acked.Applied})

	var served ids.UpdateResult
	p.serve(o, "/update", ids.UpdateRequest{Update: o.render(tagHandle)}, &served)
	p.verify(o, tagHandle, answer{applied: served.Applied})

	text := o.render(tagEngine)
	var applied *ids.UpdateResult
	t.measure(o, "engine.update", func() (err error) {
		applied, err = eng.UpdateCtx(context.Background(), text)
		return err
	})
	var parsed *sparql.Update
	t.measure(o, "sparql.parse_update", func() (err error) {
		parsed, err = sparql.ParseUpdate(text)
		return err
	})
	if t.err != nil {
		return t.err
	}
	p.verify(o, tagEngine, answer{applied: applied.Applied})
	t.measure(o, "plan.stats_rebuild", func() error {
		plan.StatsFromGraph(eng.Graph)
		return nil
	})
	kind := wal.KindInsert
	if parsed.Kind == sparql.DeleteData {
		kind = wal.KindDelete
	}
	gt := parsed.Triples[0]
	p.serial++
	t.measure(o, "wal.append", func() error {
		_, err := p.walLog.Append(wal.Record{Epoch: uint64(p.serial), Kind: kind,
			Triples: []wal.TermTriple{{S: gt.S, P: gt.P, O: gt.O}}})
		return err
	})
	fresh := dict.Term{Kind: dict.IRI, Value: fmt.Sprintf("%sprivate/n%d", benchNS, p.serial)}
	t.measure(o, "kg.insert", func() error {
		if !p.graph.Insert(fresh, gt.P, gt.O) {
			return fmt.Errorf("private graph already held %s", fresh.Value)
		}
		return nil
	})
	return t.err
}

// newProber prepares pass B: the private full-size graph and WAL the
// update-path probes write to. The graph is built between two forced
// collections, which also yields kg.live_bytes_per_triple. The caller
// calls done when the probes are over.
func newProber(sys *system, cat *catalog, cfg runConfig, client *ids.Client, m map[string]float64) (p *prober, done func(), err error) {
	var h0, h1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&h0)
	private, err := synth.BuildNCNPR(ncnprConfig(cfg.datasetSeed))
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&h1)
	m["kg.live_bytes_per_triple"] = float64(h1.HeapAlloc-h0.HeapAlloc) / float64(private.Graph.Len())

	walDir, err := os.MkdirTemp(outDir, "wal-probe-")
	if err != nil {
		return nil, nil, err
	}
	walLog, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncAlways})
	if err != nil {
		os.RemoveAll(walDir)
		return nil, nil, err
	}
	done = func() {
		walLog.Close()
		os.RemoveAll(walDir)
	}
	return &prober{
		sys: sys, cat: cat, client: client, eng: sys.inst.Engine, handler: sys.inst.Server.Handler(),
		t:     &tracer{workload: cfg.workload, origin: time.Now()},
		watch: insights.New(insights.Config{}), walLog: walLog, graph: private.Graph,
		counts: map[string][]float64{},
	}, done, nil
}

// runTraced is the per-layer run: one client, the first ops of client
// 0's stream. Pass A sends them untraced (warming the engine and
// giving the baseline for trace.overhead_ratio); pass B re-executes
// each through every probe. Pass A is time-boxed to a fifth of the
// window, and pass B covers the ops pass A reached.
func runTraced(sys *system, cat *catalog, cfg runConfig, primed *lane) (*outcome, []*lane, error) {
	limit := traceOps
	if cfg.workload == "bulk_export" || cfg.workload == "ncnpr_screen" {
		limit = traceOpsHeavy
	}
	client := newClient(sys.inst.Addr)
	defer client.HTTP.CloseIdleConnections()

	passA := newLane("ta", cfg.workload, cfg.seed, 0, cat)
	res := &outcome{metrics: map[string]float64{}}
	for start := time.Now(); len(passA.samples) < limit && time.Since(start) < cfg.window/5; {
		if _, s := passA.step(client, cat); s.failed {
			res.failed++
		}
	}
	res.attempted = len(passA.samples)

	m := res.metrics
	if err := microProbes(sys, cat, cfg.seed, m); err != nil {
		return nil, nil, err
	}
	p, done, err := newProber(sys, cat, cfg, client, m)
	if err != nil {
		return nil, nil, err
	}
	defer done()

	reg := p.eng.Metrics()
	rejected := func() float64 {
		return reg.Counter("ids_admission_rejected_total", "reason", "queue_full").Value() +
			reg.Counter("ids_admission_rejected_total", "reason", "timeout").Value()
	}
	rejected0 := rejected()
	gen := newGenerator(cfg.workload, cfg.seed, 0, cat)
	probed := 0
	// Pass B costs 5-10 times pass A; the cap only guards the driver's
	// per-run limit on a host where that ratio is far worse.
	for start := time.Now(); probed < len(passA.samples) && time.Since(start) < 3*cfg.window; probed++ {
		if o := gen.next(); o.update {
			err = p.probeUpdate(o)
		} else {
			err = p.probeQuery(o)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	if probed == 0 {
		return nil, nil, fmt.Errorf("traced run sampled no op")
	}
	if err := p.t.write(outDir); err != nil {
		return nil, nil, err
	}
	classOps := p.t.spanMetrics(m)
	for name, vs := range p.counts {
		m[name] = median(vs)
	}
	m["server.rejected_per_op"] = (rejected() - rejected0) / float64(probed)

	// trace.overhead_ratio: the probed round trip against the same ops
	// sent untraced in pass A, both as class-weighted medians.
	byClass := map[string][]float64{}
	for _, s := range passA.samples[:probed] {
		byClass[s.class] = append(byClass[s.class], float64(s.lat)/1e3)
	}
	untraced := weighted(classOps, func(c string) (float64, bool) { return median(byClass[c]), len(byClass[c]) > 0 })
	if untraced > 0 {
		m["trace.overhead_ratio"] = m["client.roundtrip_us"] / untraced
	}
	res.notes = append(res.notes, fmt.Sprintf("traced %d ops (pass A reached %d); untraced 1-client round trip %.1f us",
		probed, len(passA.samples), untraced))

	if sys.dir != "" {
		if err := durableMetrics(sys, p, primed, passA, gen, m); err != nil {
			return nil, nil, err
		}
	}
	return res, []*lane{passA}, nil
}

// durableMetrics fills the numbers only a durable instance has: WAL
// counters per update, one timed checkpoint, 1-client update latency
// from pass A, and the relaunch with its durability check.
func durableMetrics(sys *system, p *prober, primed, passA *lane, gen *generator, m map[string]float64) error {
	reg := p.eng.Metrics()
	reg.Snapshot() // runs the collectors that mirror the WAL counters
	if appends := reg.Counter("ids_wal_appends_total").Value(); appends > 0 {
		m["wal.fsyncs_per_update"] = reg.Counter("ids_wal_fsyncs_total").Value() / appends
		m["wal.bytes_per_update"] = reg.Counter("ids_wal_bytes_total").Value() / appends
	}
	m["ids.checkpoints_in_run"] = reg.Counter("ids_checkpoints_total").Value()
	info, err := sys.inst.Checkpoint()
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	m["ids.checkpoint_s"] = info.Seconds

	var updateMs []float64
	for _, s := range passA.samples {
		if s.update {
			updateMs = append(updateMs, float64(s.lat)/float64(time.Millisecond))
		}
	}
	slices.Sort(updateMs)
	m["update_p50_ms"] = percentile(updateMs, 0.50)
	if supports(len(updateMs), 0.95) {
		m["update_p95_ms"] = percentile(updateMs, 0.95)
	}

	// Every lane of pass B dealt from gen, each under its own tag.
	lanes := []*lane{primed, passA}
	for _, tag := range []string{tagRoundtrip, tagHandle, tagEngine} {
		lanes = append(lanes, &lane{tag: tag, gen: gen})
	}
	took, err := checkDurable(sys, lanes)
	if err != nil {
		return err
	}
	m["recovery_s"] = took.Seconds()
	m["ids.recovery_replayed"] = float64(sys.inst.Recovery.ReplayedRecords)
	return nil
}
