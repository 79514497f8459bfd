package ids

import (
	"bytes"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ids/internal/mpp"
	"ids/internal/obs"
)

// clientFor serves s via httptest and returns a bound client.
func clientFor(t *testing.T, s *Server) (*Client, func()) {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	return NewClient(ts.URL), ts.Close
}

// syncBuffer is a goroutine-safe log sink: the launched instance's
// background goroutines (checkpointer, HTTP handlers) log concurrently
// with test assertions.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestQIDCorrelation is the acceptance path: one query's qid from the
// client response must appear in (a) the server's structured log, (b)
// the retained trace at GET /traces?id=<qid>, and (c) alongside a
// populated ids_query_duration_seconds histogram on /metrics.
func TestQIDCorrelation(t *testing.T) {
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Launcher{}.Launch(LaunchConfig{
		Graph:        peopleGraph(4),
		Topo:         mpp.Topology{Nodes: 1, RanksPerNode: 4},
		ServerConfig: ServerConfig{Logger: logger},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Teardown()
	c := inst.Client()

	resp, err := c.Query(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.QID == "" {
		t.Fatal("query response carries no qid")
	}

	// (a) the qid appears in the server's log stream.
	logs := logBuf.String()
	want := fmt.Sprintf("%q:%q", "qid", resp.QID)
	if !strings.Contains(logs, want) {
		t.Fatalf("server log does not mention %s:\n%s", want, logs)
	}
	if !strings.Contains(logs, "query done") {
		t.Fatalf("server log missing completion line:\n%s", logs)
	}

	// (b) the qid resolves to the retained trace.
	tr, err := c.Trace(resp.QID)
	if err != nil {
		t.Fatalf("trace %s unresolvable: %v", resp.QID, err)
	}
	if tr.ID != resp.QID || len(tr.Ops) == 0 || tr.Status != "ok" {
		t.Fatalf("trace = id %q status %q ops %d", tr.ID, tr.Status, len(tr.Ops))
	}

	// (c) the latency histogram saw the query.
	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `ids_query_duration_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("metrics missing populated duration histogram:\n%s", text)
	}

	// A failed query's qid still resolves, with an error trace.
	if _, err := c.Query(`SELECT nonsense`); err == nil {
		t.Fatal("bad query accepted")
	}
	idx := inst.Server.ring.Index()
	var errQID string
	for _, e := range idx {
		if e.Status == "error" {
			errQID = e.ID
		}
	}
	if errQID == "" {
		t.Fatalf("no error trace retained: %+v", idx)
	}
	etr, err := c.Trace(errQID)
	if err != nil {
		t.Fatal(err)
	}
	if etr.Status != "error" || etr.Error == "" {
		t.Fatalf("error trace = %+v", etr)
	}
}

// TestReadyzLifecycle pins the readiness state machine: 503 while the
// listener is up but the instance has not finished starting (observed
// deterministically via OnListen), 200 once Launch returns, and the
// trace/slow-query plumbing live on the same instance.
func TestReadyzLifecycle(t *testing.T) {
	probed := false
	inst, err := Launcher{}.Launch(LaunchConfig{
		Graph: peopleGraph(4),
		Topo:  mpp.Topology{Nodes: 1, RanksPerNode: 4},
		OnListen: func(addr string) {
			probed = true
			// The port answers before recovery: liveness is green,
			// readiness is 503 with the lifecycle state.
			resp, err := http.Get("http://" + addr + "/healthz")
			if err != nil {
				t.Errorf("healthz during startup: %v", err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("healthz during startup = %d", resp.StatusCode)
			}
			ok, state := NewClient("http://" + addr).Ready()
			if ok {
				t.Error("readyz reported ready before startup finished")
			}
			if state != "starting" && state != "recovering" {
				t.Errorf("readyz state during startup = %q", state)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Teardown()
	if !probed {
		t.Fatal("OnListen never fired")
	}
	if st := inst.Health.State(); st != obs.StateReady {
		t.Fatalf("state after launch = %v", st)
	}
	ok, state := inst.Client().Ready()
	if !ok || state != "ready" {
		t.Fatalf("readyz after launch = %v %q", ok, state)
	}
}

// TestSlowQueryCapture drives a query through a server whose slow
// threshold is 0-adjacent so every query qualifies: it must be pinned
// in the slow log, flagged in /traces, and counted in the metric.
func TestSlowQueryCapture(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{SlowQuerySeconds: 1e-9})
	c, done := clientFor(t, s)
	defer done()

	resp, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	slow := s.ring.Slow()
	if len(slow) != 1 || slow[0].ID != resp.QID || !slow[0].Slow {
		t.Fatalf("slow log = %+v (qid %s)", slow, resp.QID)
	}
	if v := e.Metrics().Counter("ids_slow_queries_total").Value(); v != 1 {
		t.Fatalf("ids_slow_queries_total = %v", v)
	}
}

// TestSlowVerdictCountsWriterWait holds the engine's writer lock for
// 80 ms under a 50 ms budget: the query's wall time includes the wait,
// so every consumer of the verdict — /traces, the response, the slow
// counter and the flight recorder — agrees the query was slow.
func TestSlowVerdictCountsWriterWait(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{SlowQuerySeconds: 0.05, TailSampleN: -1})
	c, done := clientFor(t, s)
	defer done()

	e.mu.Lock()
	go func() {
		time.Sleep(80 * time.Millisecond)
		e.mu.Unlock()
	}()
	resp, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.TailRetained || resp.TailReason != "slow" {
		t.Fatalf("response verdict = (%v, %q), want (true, slow)", resp.TailRetained, resp.TailReason)
	}
	listed := getTraces(t, c.Base+"/traces")
	if len(listed) != 1 || listed[0].ID != resp.QID {
		t.Fatalf("/traces = %+v, want just %s", listed, resp.QID)
	}
	if ent := listed[0]; !ent.Slow || !ent.Retained || ent.TailReason != "slow" {
		t.Fatalf("/traces entry disagrees with the verdict: %+v", ent)
	}
	if v := e.Metrics().Counter("ids_slow_queries_total").Value(); v != 1 {
		t.Fatalf("ids_slow_queries_total = %v, want 1", v)
	}
	if ent := listed[0]; ent.Capture != "latency" {
		t.Fatalf("/traces entry = %+v, want a latency capture for %s", ent, resp.QID)
	}
}

// TestVectorMetricsExported runs a SIMILAR query through the HTTP
// surface and asserts the vector-search telemetry shows up on
// /metrics: a populated ids_vector_search_seconds histogram and a
// nonzero visited-nodes counter.
func TestVectorMetricsExported(t *testing.T) {
	e := knnEngine(t)
	s := NewServerConfig(e, ServerConfig{})
	c, done := clientFor(t, s)
	defer done()

	if _, err := c.Query(`SELECT ?c WHERE { SIMILAR(?c, [0 0], 3, "fp") }`); err != nil {
		t.Fatal(err)
	}
	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `ids_vector_search_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("metrics missing populated vector search histogram:\n%s", text)
	}
	if !strings.Contains(text, "ids_vector_visited_nodes_total") {
		t.Fatalf("metrics missing visited-nodes counter:\n%s", text)
	}
	if v := e.Metrics().Counter("ids_vector_visited_nodes_total").Value(); v <= 0 {
		t.Fatalf("ids_vector_visited_nodes_total = %v", v)
	}
}

// TestTraceEvictedQID404 overflows the store's 64 recent traces and
// checks the evicted qid answers 404 while a recent one still resolves.
func TestTraceEvictedQID404(t *testing.T) {
	e := newEngine(t, 4)
	// Tail sampling off: it would pin the first trace of the shape,
	// which is exactly the eviction this test wants to observe.
	s := NewServerConfig(e, ServerConfig{TailSampleN: -1})
	c, done := clientFor(t, s)
	defer done()

	var qids []string
	for i := 0; i < 66; i++ {
		resp, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
		if err != nil {
			t.Fatal(err)
		}
		qids = append(qids, resp.QID)
	}
	// The server's own message reaches the caller, not just the status.
	if _, err := c.Trace(qids[0]); err == nil {
		t.Fatalf("evicted qid %s still resolves", qids[0])
	} else if want := fmt.Sprintf("no stored trace %q", qids[0]); !strings.Contains(err.Error(), want) {
		t.Fatalf("evicted qid error = %v, want it to say %s", err, want)
	}
	if _, err := c.Trace(qids[2]); err != nil {
		t.Fatalf("recent qid %s unresolvable: %v", qids[2], err)
	}
}
