package ids

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/obs/insights"
	"ids/internal/plan"
)

// retryAfterSeconds is the backoff hint sent with 429 responses.
const retryAfterSeconds = 1

// AdmissionConfig tunes the server's query admission controller: how
// many MPP worlds may run at once, how many queries may wait for a
// slot, and how long they wait before the server sheds them.
type AdmissionConfig struct {
	// MaxInFlight is the number of concurrently executing queries.
	// Default: max(2, GOMAXPROCS) — each query runs its own MPP world
	// of rank goroutines, so the processor count is the natural bound.
	MaxInFlight int
	// MaxQueue is how many queries may wait for a slot beyond the
	// in-flight limit; arrivals past it get 429 immediately.
	// Default: 4 * MaxInFlight.
	MaxQueue int
	// QueueTimeout is the longest a queued query waits before the
	// server sheds it with 429 + Retry-After. Default: 2s.
	QueueTimeout time.Duration
}

func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
		if c.MaxInFlight < 2 {
			c.MaxInFlight = 2
		}
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	} else if c.MaxQueue == 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	return c
}

// Admission rejection reasons (the 429 body and metric label).
var (
	errQueueFull    = errors.New("ids: admission queue full")
	errQueueTimeout = errors.New("ids: admission queue wait timed out")
)

// admission is a bounded-concurrency admission controller: a counting
// semaphore with a FIFO wait queue (channel send order is FIFO), a
// queue cap, and a per-query wait timeout. It publishes in-flight
// count, queue depth, queue wait, and rejection counts to the engine's
// metrics registry.
type admission struct {
	cfg AdmissionConfig
	// slots holds the free admission-slot indexes (receive = acquire).
	// The index identifies the slot for the query's lifetime and keys
	// the engine's columnar arena reuse: slot k always reuses slot k's
	// warm arenas, bounding the arena working set at MaxInFlight sets.
	slots  chan int
	queued atomic.Int64

	inflight        *obs.Gauge
	queueDepth      *obs.Gauge
	waitSeconds     *obs.Histogram
	rejectedFull    *obs.Counter
	rejectedTimeout *obs.Counter
}

func newAdmission(cfg AdmissionConfig, reg *obs.Registry) *admission {
	cfg = cfg.withDefaults()
	reg.Describe("ids_inflight_queries", "Queries currently executing (admission slots held).")
	reg.Describe("ids_admission_queue_depth", "Queries waiting for an admission slot.")
	reg.Describe("ids_admission_wait_seconds", "Time admitted queries spent waiting for a slot (histogram).")
	reg.Describe("ids_admission_rejected_total", "Queries shed by the admission controller, by reason.")
	reg.Describe("ids_admission_max_inflight", "Configured in-flight query limit.")
	a := &admission{
		cfg:             cfg,
		slots:           make(chan int, cfg.MaxInFlight),
		inflight:        reg.Gauge("ids_inflight_queries"),
		queueDepth:      reg.Gauge("ids_admission_queue_depth"),
		waitSeconds:     reg.Histogram("ids_admission_wait_seconds", nil),
		rejectedFull:    reg.Counter("ids_admission_rejected_total", "reason", "queue_full"),
		rejectedTimeout: reg.Counter("ids_admission_rejected_total", "reason", "timeout"),
	}
	reg.Gauge("ids_admission_max_inflight").Set(float64(cfg.MaxInFlight))
	for i := 0; i < cfg.MaxInFlight; i++ {
		a.slots <- i
	}
	return a
}

// admit blocks until a slot is free, the queue overflows, the wait
// times out, or ctx is cancelled. On nil return the caller holds the
// returned slot and must release(slot); wait reports how long the
// query queued (zero on the fast path), which the server surfaces on
// the trace.
func (a *admission) admit(ctx context.Context) (slot int, wait time.Duration, err error) {
	select {
	case slot = <-a.slots:
		a.inflight.Add(1)
		a.waitSeconds.Observe(0)
		return slot, 0, nil
	default:
	}
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		a.rejectedFull.Inc()
		return -1, 0, errQueueFull
	}
	a.queueDepth.Set(float64(a.queued.Load()))
	start := time.Now()
	timer := time.NewTimer(a.cfg.QueueTimeout)
	defer timer.Stop()
	defer func() {
		a.queued.Add(-1)
		a.queueDepth.Set(float64(a.queued.Load()))
	}()
	select {
	case slot = <-a.slots:
		wait = time.Since(start)
		a.waitSeconds.Observe(wait.Seconds())
		a.inflight.Add(1)
		return slot, wait, nil
	case <-timer.C:
		a.rejectedTimeout.Inc()
		return -1, time.Since(start), errQueueTimeout
	case <-ctx.Done():
		return -1, time.Since(start), ctx.Err()
	}
}

func (a *admission) release(slot int) {
	a.slots <- slot
	a.inflight.Add(-1)
}

// Server exposes an Engine over HTTP — the "query/update endpoint" the
// paper's Datastore Launcher opens. Queries pass through the admission
// controller and then run concurrently on the snapshot-isolated
// engine; updates bypass admission and serialize on the engine's
// writer lock. Endpoints:
//
//	POST /query          {"query": "...", "explain": bool} -> QueryResponse (429 + Retry-After when overloaded)
//	POST /update         {"update": "INSERT DATA ..."}     -> UpdateResult
//	POST /vector/upsert  {"store","key","vector"}          -> UpdateResult
//	POST /vector/search  {"store","key","k"}               -> VectorSearchResponse
//	POST /module         {"name","source","reload"}        -> ModuleResponse
//	POST /checkpoint                                       -> CheckpointInfo (durable instances only)
//	GET  /snapshot                                         -> binary graph snapshot
//	GET  /profile                                          -> merged UDF profile
//	GET  /metrics                                          -> Prometheus text exposition
//	GET  /traces                                           -> retained trace index; ?slow=1 the slow list
//	GET  /traces?id=q000001                                -> stored query trace (JSON)
//	GET  /traces?id=q000001&artifact=heap|goroutine        -> flight-recorded profile (raw)
//	GET  /insights                                         -> workload observatory by fingerprint
//	GET  /healthz                                          -> 200 ok (pure liveness)
//	GET  /readyz                                           -> 200 when serving, 503 while recovering/draining
type Server struct {
	Engine *Engine

	adm *admission
	log *slog.Logger

	// ring is the trace store: recent traces (every query is traced),
	// the ones the tail verdict pinned, and the profiled budget
	// breaches — all read through GET /traces.
	ring *obs.TraceStore

	// health, when set, backs GET /readyz; nil means "always ready"
	// (embedded servers without a launcher lifecycle).
	health *obs.Health

	// ckpt, when set, serves POST /checkpoint (durable instances only).
	ckpt func() (CheckpointInfo, error)

	slowTotal      *obs.Counter
	flightrecCaps  *obs.Counter
	flightrecSuppr *obs.Counter
	retained       *obs.Counter
	dropped        *obs.Counter
}

// ServerConfig tunes the HTTP layer beyond admission control.
type ServerConfig struct {
	// Admission bounds concurrent query execution.
	Admission AdmissionConfig
	// SlowQuerySeconds is the latency budget of the tail verdict (0
	// disables): a query whose wall time, writer-lock wait included,
	// reaches it gets a verdict that includes "slow" — its trace is
	// pinned and listed by /traces?slow=1, logged at WARN, counted in
	// ids_slow_queries_total, and flight-recorded.
	SlowQuerySeconds float64
	// SlowQueryAllocBytes is the allocation budget of the tail verdict
	// (0 disables): a query whose physical allocation delta reaches it
	// gets "alloc" in its verdict — pinned, logged and flight-recorded.
	SlowQueryAllocBytes int64
	// TailSampleN retains every N-th query of each fingerprint in the
	// tail pipeline regardless of cost (0 selects the insights default;
	// negative disables 1-in-N sampling, leaving slow/error/alloc as
	// the only retention reasons).
	TailSampleN int
	// InsightsTopK bounds the workload observatory's fingerprint sketch
	// (0 selects the insights default).
	InsightsTopK int
	// Logger receives request/slow-query lines (default: engine logger).
	Logger *slog.Logger
}

// QueryRequest is the /query payload.
type QueryRequest struct {
	Query string `json:"query"`
	// Explain asks the server to trace this query and return the span
	// trace in the response (also stored for later GET /traces?id=).
	Explain bool `json:"explain,omitempty"`
}

// QueryResponse is the /query result. QID is the query's correlation
// id: it appears in every server log line for the query, resolves via
// GET /traces?id=<qid>, and the query's latency lands in the
// ids_query_duration_seconds histogram.
type QueryResponse struct {
	QID string `json:"qid"`
	// TraceParent is the query's resolved W3C trace context: the
	// caller's ingested `traceparent` header when one was sent, else a
	// freshly minted one — so external callers correlate their
	// distributed trace with this qid without scraping /traces.
	TraceParent string             `json:"traceparent,omitempty"`
	Vars        []string           `json:"vars"`
	Rows        [][]string         `json:"rows"`
	Makespan    float64            `json:"makespan_seconds"`
	Phases      map[string]float64 `json:"phases"`
	Plan        string             `json:"plan"`
	WallTime    float64            `json:"wall_seconds"`
	TraceID     string             `json:"trace_id,omitempty"`
	// Fingerprint is the query's workload shape hash — the key into
	// GET /insights and the ids_fingerprint_* metric series.
	Fingerprint string `json:"fingerprint,omitempty"`
	// TailRetained/TailReason report the tail-sampling decision: when
	// true, the full trace is pinned past ring eviction for the listed
	// reason(s).
	TailRetained bool            `json:"tail_retained,omitempty"`
	TailReason   string          `json:"tail_reason,omitempty"`
	Trace        *obs.QueryTrace `json:"trace,omitempty"`
}

// ModuleRequest is the /module payload.
type ModuleRequest struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Reload bool   `json:"reload"`
}

// ModuleResponse is the /module result.
type ModuleResponse struct {
	Loaded bool `json:"loaded"`
}

// NewServerConfig wraps an engine with full HTTP-layer configuration.
func NewServerConfig(e *Engine, cfg ServerConfig) *Server {
	lg := cfg.Logger
	if lg == nil {
		lg = e.Logger()
	}
	reg := e.Metrics()
	reg.Describe("ids_slow_queries_total", "Queries whose wall time reached the slow-query threshold.")
	// Engines embedded without a launcher run in-memory; the launcher
	// calls SetBuildInfo with the real fsync policy before this runs,
	// and the first call wins.
	e.SetBuildInfo("in-memory")
	// The workload observatory owns the budgets: its verdict is the
	// only place "slow" and "alloc" are decided (see Server.sink).
	e.ConfigureInsights(insights.Config{
		TopK:        cfg.InsightsTopK,
		SampleN:     cfg.TailSampleN,
		SlowSeconds: cfg.SlowQuerySeconds,
		AllocBudget: cfg.SlowQueryAllocBytes,
	})
	reg.Describe("ids_tail_retained_total", "Traces retained by the tail sampler.")
	reg.Describe("ids_tail_dropped_total", "Traces not retained by the tail sampler (recent-ring only).")
	s := &Server{
		Engine:         e,
		adm:            newAdmission(cfg.Admission, reg),
		log:            obs.OrNop(lg),
		ring:           obs.NewTraceStore(),
		slowTotal:      reg.Counter("ids_slow_queries_total"),
		flightrecCaps:  reg.Counter("ids_flightrec_captures_total"),
		flightrecSuppr: reg.Counter("ids_flightrec_suppressed_total"),
		retained:       reg.Counter("ids_tail_retained_total"),
		dropped:        reg.Counter("ids_tail_dropped_total"),
	}
	s.registerFingerprintMetrics(reg)
	return s
}

// SetHealth wires the launcher's lifecycle state into GET /readyz.
func (s *Server) SetHealth(h *obs.Health) { s.health = h }

// Handler returns the HTTP routing for the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/vector/upsert", s.handleVectorUpsert)
	mux.HandleFunc("/vector/search", s.handleVectorSearch)
	mux.HandleFunc("/module", s.handleModule)
	mux.HandleFunc("/profile", s.handleProfile)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/insights", s.handleInsights)
	return mux
}

// handleReadyz reports readiness: 503 with the lifecycle state while
// the instance is starting, replaying its WAL, or draining; 200 once
// queries can be served. /healthz stays pure liveness.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.health != nil && !s.health.Ready() {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, s.health.State().String())
		return
	}
	// A degraded engine still answers queries from memory, but an
	// orchestrator should stop routing writes here and raise an alarm:
	// readiness reports the degradation while /query keeps working.
	if reason, ok := s.Engine.Degraded(); ok {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded (read-only): %s\n", reason)
		return
	}
	fmt.Fprintln(w, "ready")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxRequestBytes bounds every POST body: far above any query, update
// or module a client sends, far below what would exhaust the server.
const maxRequestBytes = 64 << 20

// readJSON decodes a POST's JSON body, of at most maxRequestBytes, into
// v. Otherwise it answers the request itself — 405 for another method,
// 413 for a larger body, 400 for a malformed one — and returns false.
// A body that declares a larger Content-Length is refused unread; a
// chunked one is read up to the cap first.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if r.ContentLength > maxRequestBytes {
		writeErr(w, http.StatusRequestEntityTooLarge, &http.MaxBytesError{Limit: maxRequestBytes})
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(v); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, err)
		return false
	}
	return true
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !readJSON(w, r, &req) {
		return
	}
	// The qid is minted at admission so even shed queries correlate:
	// the 429 log line and the client's retry logging share the id.
	qid := obs.NewQID()
	ctx := obs.WithQID(r.Context(), qid)
	// W3C trace context: join the caller's distributed trace when a
	// valid traceparent header arrives, else mint a fresh one. The
	// resolved value rides the request context (log lines, WAL append,
	// operator spans) and is echoed in the response header and body so
	// the caller can correlate without scraping /traces.
	tc, tcErr := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if tcErr != nil {
		tc = obs.NewTraceContext()
	}
	ctx = obs.WithTraceContext(ctx, tc)
	w.Header().Set("Traceparent", tc.String())
	slot, queueWait, err := s.adm.admit(ctx)
	if err != nil {
		if errors.Is(err, errQueueFull) || errors.Is(err, errQueueTimeout) {
			s.log.Warn("query shed", "qid", qid, "reason", err.Error())
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			writeErr(w, http.StatusTooManyRequests, err)
			return
		}
		writeErr(w, http.StatusServiceUnavailable, err) // client went away
		return
	}
	defer s.adm.release(slot)
	// The slot index keys columnar arena reuse in the engine: queries
	// admitted on the same slot reuse the same warm arena set.
	ctx = withSlot(ctx, slot)
	start := time.Now()
	// Every query is traced so every qid resolves via GET /traces?id=;
	// the full span tree is embedded in the response only on explain.
	res, err := s.Engine.QueryTracedCtx(ctx, req.Query)
	wall := time.Since(start).Seconds()
	if err != nil {
		// Failed queries retain a full stub trace — errors are always a
		// tail-worthy outcome — so the qid still resolves and the failure
		// is pinned alongside slow successes.
		stub := &obs.QueryTrace{
			ID: qid, Query: req.Query, Start: start,
			Status: "error", Error: err.Error(), WallSeconds: wall,
			QueueWaitSeconds: queueWait.Seconds(),
			Fingerprint:      plan.FormatFingerprint(plan.FingerprintString(req.Query)),
			TraceParent:      tc.String(),
		}
		s.sink(ctx, stub, insights.Decision{Retain: true, Reasons: []string{"error"}})
		s.log.ErrorContext(ctx, "query failed", "wall_seconds", wall, "err", err)
		writeErr(w, statusOf(err), err)
		return
	}
	res.Trace.QueueWaitSeconds = queueWait.Seconds()
	s.sink(ctx, res.Trace, res.Tail)
	s.log.InfoContext(ctx, "query done",
		"wall_seconds", wall, "rows", len(res.Rows), "makespan_seconds", res.Report.Makespan)
	// The traced execute has already rendered the plan into the trace.
	resp := QueryResponse{
		QID:          qid,
		TraceParent:  tc.String(),
		Vars:         res.Vars,
		Makespan:     res.Report.Makespan,
		Phases:       res.Report.Phases,
		Plan:         res.Trace.Plan,
		WallTime:     wall,
		TraceID:      res.Trace.ID,
		Fingerprint:  plan.FormatFingerprint(res.Plan.Fingerprint),
		TailRetained: res.Tail.Retain,
		TailReason:   res.Tail.Reason(),
	}
	if req.Explain {
		resp.Trace = res.Trace
	}
	// The rows go out straight from the result's dictionary IDs; a write
	// error here means the client went away mid-answer.
	if err := writeQueryResponse(w, s.Engine.Graph.Dict.Snapshot(), &resp, res.Rows); err != nil {
		s.log.WarnContext(ctx, "query response not delivered", "err", err)
	}
}

// sink acts on one finished query's tail verdict; it is the only
// consumer of the verdict. Every trace goes into the store (pinned
// when retained); a retained trace is counted; a verdict that includes
// "slow" is logged at WARN and counted; one that includes "slow" or
// "alloc" is flight-recorded.
func (s *Server) sink(ctx context.Context, tr *obs.QueryTrace, d insights.Decision) {
	slow, alloc := d.Has("slow"), d.Has("alloc")
	s.ring.Put(tr, d.Reason(), slow)
	if d.Retain {
		s.retained.Inc()
	} else {
		s.dropped.Inc()
	}
	if slow {
		s.slowTotal.Inc()
		s.log.WarnContext(ctx, "slow query",
			"wall_seconds", tr.WallSeconds,
			"threshold_seconds", s.Engine.Insights().Config().SlowSeconds,
			"rows", tr.Rows, "query", tr.Query)
	}
	if !slow && !alloc {
		return
	}
	var allocBytes int64
	if tr.Resources != nil {
		allocBytes = tr.Resources.AllocBytes
	}
	capture := "latency"
	switch {
	case slow && alloc:
		capture = "latency+alloc"
	case alloc:
		capture = "alloc"
	}
	// Each breach counts its own outcome here, the one place captures
	// and rate-limit suppressions are tallied.
	if s.ring.Capture(capture, tr) {
		s.flightrecCaps.Inc()
		s.log.WarnContext(ctx, "flight recorder capture", "reason", capture,
			"wall_seconds", tr.WallSeconds, "alloc_bytes", allocBytes)
	} else {
		s.flightrecSuppr.Inc()
	}
	if alloc {
		s.log.WarnContext(ctx, "query exceeded alloc budget",
			"alloc_bytes", allocBytes, "budget_bytes", s.Engine.Insights().Config().AllocBudget)
	}
}

// openMetricsContentType labels the OpenMetrics exposition.
const openMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// handleMetrics serves the engine registry in Prometheus text
// exposition format. A scraper that negotiates OpenMetrics
// (Accept: application/openmetrics-text) gets the exemplar-bearing
// exposition with its `# EOF` terminator; everyone else gets classic
// 0.0.4, whose parser would reject exemplar suffixes. Safe to scrape
// at any time: counters are atomic and the UDF-profile collector reads
// internally synchronized profilers, so no serialization against
// running queries is needed.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", openMetricsContentType)
		s.Engine.Metrics().WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.Engine.Metrics().WritePrometheus(w)
}

// handleTraces is the one read path for retained queries (GET /traces):
//
//	/traces                                 the index: one row per stored trace, newest first
//	/traces?slow=1                          only the traces whose verdict includes "slow"
//	/traces?id=<qid>                        that query's span trace (JSON)
//	/traces?id=<qid>&artifact=heap|goroutine the profile its flight record kept
//
// A heap artifact is pprof protobuf for `go tool pprof`; a goroutine
// artifact is text. An id no list holds any more answers 404.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if id := q.Get("id"); id != "" {
		s.serveTrace(w, id, q.Get("artifact"))
		return
	}
	slow := false
	if v := q.Get("slow"); v != "" {
		var err error
		if slow, err = strconv.ParseBool(v); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("ids: slow=%q is not a boolean", v))
			return
		}
	}
	idx := s.ring.Index()
	if slow {
		idx = s.ring.Slow()
	}
	writeJSON(w, http.StatusOK, TraceIndex{
		ThresholdSeconds: s.Engine.Insights().Config().SlowSeconds,
		Traces:           idx,
	})
}

// serveTrace answers GET /traces?id=<id>[&artifact=heap|goroutine].
func (s *Server) serveTrace(w http.ResponseWriter, id, artifact string) {
	if artifact == "" {
		if tr := s.ring.Get(id); tr != nil {
			writeJSON(w, http.StatusOK, tr)
			return
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("ids: no stored trace %q", id))
		return
	}
	if artifact != "heap" && artifact != "goroutine" {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("ids: unknown artifact %q (want heap or goroutine)", artifact))
		return
	}
	rec := s.ring.FlightRecord(id)
	if rec == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("ids: no profiles kept for %q", id))
		return
	}
	if artifact == "heap" {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(rec.HeapProfile)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(rec.GoroutineProfile)
}

// statusOf maps an engine error to its HTTP status: a rank panic is the
// server's fault (500), a degraded engine cannot take writes (503), and
// anything else is the request's fault (400).
func statusOf(err error) int {
	switch {
	case errors.Is(err, mpp.ErrPanic):
		return http.StatusInternalServerError
	case errors.Is(err, ErrDegraded):
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// UpdateRequest is the /update payload.
type UpdateRequest struct {
	Update string `json:"update"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !readJSON(w, r, &req) {
		return
	}
	// Updates bypass admission: the engine's writer lock serializes
	// them against each other and against in-flight queries.
	res, err := s.Engine.Update(req.Update)
	if err != nil {
		writeErr(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleModule(w http.ResponseWriter, r *http.Request) {
	var req ModuleRequest
	if !readJSON(w, r, &req) {
		return
	}
	var err error
	if req.Reload {
		err = s.Engine.ReloadModule(req.Name, req.Source)
	} else {
		err = s.Engine.LoadModule(req.Name, req.Source)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, ModuleResponse{Loaded: true})
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	merged := s.Engine.MergedProfile()
	writeJSON(w, http.StatusOK, merged.Snapshot())
}

// handleSnapshot streams the graph's binary snapshot (GET /snapshot),
// the backup/fast-restart path. The engine read lock (inside
// SnapshotTo) excludes concurrent updates while streaming.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := s.Engine.SnapshotTo(w); err != nil {
		// Headers are gone; nothing more we can do than log via the
		// response trailer-less close.
		return
	}
}

// SetCheckpointer enables POST /checkpoint, backed by fn (the
// launcher wires this to the instance's checkpointer).
func (s *Server) SetCheckpointer(fn func() (CheckpointInfo, error)) { s.ckpt = fn }

// handleCheckpoint forces a checkpoint (POST /checkpoint) and returns
// the resulting snapshot name and covered LSN.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.ckpt == nil {
		writeErr(w, http.StatusConflict, errors.New("ids: durability not enabled (launch with -data-dir)"))
		return
	}
	info, err := s.ckpt()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}
