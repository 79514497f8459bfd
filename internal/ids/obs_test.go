package ids

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"ids/internal/dict"
	"ids/internal/kg"
	"ids/internal/mpp"
)

// ---------------------------------------------------------------
// Engine-level tracing.
// ---------------------------------------------------------------

const peopleQuery = `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/age> ?a . FILTER(?a > 0) } ORDER BY ?n`

func TestQueryTraced(t *testing.T) {
	e := newEngine(t, 4)
	res, err := e.QueryTraced(peopleQuery)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("QueryTraced returned no trace")
	}
	if tr.ID == "" || tr.Ranks != 4 || tr.Rows != len(res.Rows) {
		t.Fatalf("trace header = %+v", tr)
	}
	if tr.WallSeconds <= 0 || tr.ExecSeconds <= 0 || tr.Plan == "" {
		t.Fatalf("trace timings missing: %+v", tr)
	}
	ops := map[string]bool{}
	for _, op := range tr.Ops {
		ops[op.Op] = true
		if len(op.Ranks) != 4 {
			t.Fatalf("op %s has %d rank samples", op.Op, len(op.Ranks))
		}
	}
	for _, want := range []string{"scan", "join", "filter", "gather"} {
		if !ops[want] {
			t.Fatalf("trace missing %q op; got %v", want, tr.Ops)
		}
	}
	// The filter op carries the conjunct order note.
	for _, op := range tr.Ops {
		if op.Op == "filter" && !strings.Contains(op.Note, "order:") {
			t.Fatalf("filter note = %q", op.Note)
		}
	}
}

func TestQueryNotTracedByDefault(t *testing.T) {
	e := newEngine(t, 4)
	res, err := e.Query(peopleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("untraced query carries a trace")
	}
}

func TestEngineMetricsRecorded(t *testing.T) {
	e := newEngine(t, 4)
	if _, err := e.Query(peopleQuery); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(`SELECT nonsense`); err == nil {
		t.Fatal("bad query accepted")
	}
	reg := e.Metrics()
	if v := reg.Counter("ids_queries_total").Value(); v != 1 {
		t.Fatalf("ids_queries_total = %v", v)
	}
	if v := reg.Counter("ids_query_errors_total").Value(); v != 1 {
		t.Fatalf("ids_query_errors_total = %v", v)
	}
	if v := reg.Counter("ids_rows_returned_total").Value(); v != 5 {
		t.Fatalf("ids_rows_returned_total = %v", v)
	}
	if n := reg.Histogram("ids_query_duration_seconds", nil).Count(); n != 1 {
		t.Fatalf("query duration histogram count = %d", n)
	}
}

// ---------------------------------------------------------------
// HTTP endpoints.
// ---------------------------------------------------------------

func getBody(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := testServer(t)
	code, _, body := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

// TestHTTPGraphSizeGauges: /metrics reports the graph's triple and
// term counts as scrape-time gauges, and a scrape after an INSERT DATA
// sees the insert.
func TestHTTPGraphSizeGauges(t *testing.T) {
	s, ts := testServer(t)
	g := s.Engine.Graph
	scrape := func(triples, terms int) {
		t.Helper()
		code, _, body := getBody(t, ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("metrics status = %d", code)
		}
		for _, want := range []string{
			fmt.Sprintf("\nids_graph_triples %d\n", triples),
			fmt.Sprintf("\nids_graph_terms %d\n", terms),
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("metrics missing %q", strings.TrimSpace(want))
			}
		}
	}
	triples, terms := g.Len(), g.Dict.Len()
	if triples == 0 || terms == 0 {
		t.Fatalf("test graph is empty: %d triples, %d terms", triples, terms)
	}
	scrape(triples, terms)
	if _, err := NewClient(ts.URL).Update(`INSERT DATA { <http://x/gauge> <http://x/name> "gauge" . }`); err != nil {
		t.Fatal(err)
	}
	scrape(triples+1, terms+2) // one new subject IRI, one new literal

	// Scrapes racing updates read the graph under the engine read lock;
	// -race flags any unguarded read.
	const racing = 20
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < racing && err == nil; i++ {
			_, err = s.Engine.Update(fmt.Sprintf(`INSERT DATA { <http://x/race%d> <http://x/name> "race%d" . }`, i, i))
		}
		done <- err
	}()
	for i := 0; i < racing; i++ {
		s.Engine.Metrics().WritePrometheus(io.Discard)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	scrape(triples+1+racing, terms+2+2*racing)
}

func TestHTTPProfileEndpoint(t *testing.T) {
	_, ts := testServer(t)
	code, ct, body := getBody(t, ts.URL+"/profile")
	if code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("profile: %d %q", code, ct)
	}
	if !json.Valid([]byte(body)) {
		t.Fatalf("profile not JSON: %s", body)
	}
}

func TestHTTPMetricsEndpoint(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)
	if _, err := c.Query(peopleQuery); err != nil {
		t.Fatal(err)
	}
	code, ct, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status = %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content-type = %q", ct)
	}
	for _, want := range []string{
		"# HELP ids_queries_total",
		"# TYPE ids_queries_total counter",
		"ids_queries_total 1",
		"# TYPE ids_query_duration_seconds histogram",
		`ids_query_duration_seconds_bucket{le="+Inf"} 1`,
		"ids_query_duration_seconds_count 1",
		"ids_go_goroutines",
		"mpp_collectives_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
	// The same text round-trips through the client helper.
	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "ids_queries_total") {
		t.Fatalf("MetricsText = %q", text)
	}
}

func TestHTTPExplainAndTrace(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)

	// Unknown trace -> 404; empty ring lists no traces.
	code, _, body := getBody(t, ts.URL+"/traces?id=nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d", code)
	}
	code, _, body = getBody(t, ts.URL+"/traces")
	if code != http.StatusOK || !strings.Contains(body, `"traces":[]`) {
		t.Fatalf("trace list: %d %s", code, body)
	}

	// Explain query returns and stores a trace.
	qr, err := c.QueryExplain(peopleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if qr.TraceID == "" || qr.Trace == nil {
		t.Fatalf("explain response missing trace: %+v", qr)
	}
	if len(qr.Trace.Ops) == 0 || qr.Trace.Ranks != 4 {
		t.Fatalf("trace = %+v", qr.Trace)
	}
	tr, err := c.Trace(qr.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != qr.TraceID || len(tr.Ops) != len(qr.Trace.Ops) {
		t.Fatalf("stored trace differs: %+v vs %+v", tr, qr.Trace)
	}
	// Every query is traced and retained — plain ones too — so the
	// ring grows and the plain query's qid resolves.
	plain, err := c.Query(peopleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if plain.QID == "" {
		t.Fatal("plain query response missing qid")
	}
	if plain.Trace != nil {
		t.Fatal("plain query response embeds a full trace")
	}
	if _, err := c.Trace(plain.QID); err != nil {
		t.Fatalf("plain query qid %s unresolvable: %v", plain.QID, err)
	}
	list, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) != 2 || list.Traces[0].ID != plain.QID || list.Traces[1].ID != qr.TraceID {
		t.Fatalf("trace index = %+v", list.Traces)
	}
}

func TestTraceRingBounded(t *testing.T) {
	s, ts := testServer(t)
	c := NewClient(ts.URL)
	const recent = 64 // the trace store's recent-list bound
	for i := 0; i < recent+5; i++ {
		if _, err := c.QueryExplain(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.ring.Len(); n != recent {
		t.Fatalf("trace ring holds %d, want %d", n, recent)
	}
}

// ---------------------------------------------------------------
// Tracing overhead.
// ---------------------------------------------------------------

// benchEngine builds an engine over a graph big enough that per-row
// operator work (not goroutine spin-up or trace assembly) dominates —
// the regime real queries run in. The trace cost is per-operator, not
// per-row, so overhead shrinks as data grows.
func benchEngine(b *testing.B, people int) *Engine {
	b.Helper()
	g := kg.New(4)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	for i := 0; i < people; i++ {
		s := iri(fmt.Sprintf("http://x/p%d", i))
		g.Add(s, iri("http://x/name"), lit(fmt.Sprintf("person-%d", i)))
		g.Add(s, iri("http://x/age"), lit(fmt.Sprintf("%d", 20+i%60)))
	}
	g.Seal()
	e, err := NewEngine(g, mpp.Topology{Nodes: 1, RanksPerNode: 4})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

const benchQuery = `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/age> ?a . FILTER(?a > 30) }`

func BenchmarkQueryUntraced(b *testing.B) {
	e := benchEngine(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryTraced(b *testing.B) {
	e := benchEngine(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.QueryTraced(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}
