package ids

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ids/internal/kg"
	"ids/internal/mpp"
)

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// healthy reports whether c's endpoint answers GET /healthz with 200.
func healthy(c *Client) bool {
	resp, err := c.HTTP.Get(c.Base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func TestHTTPQueryRoundTrip(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)
	if !healthy(c) {
		t.Fatal("healthz failed")
	}
	resp, err := c.Query(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 5 {
		t.Fatalf("rows = %d", len(resp.Rows))
	}
	if resp.Rows[0][1] != `"ada"` {
		t.Fatalf("row0 = %v", resp.Rows[0])
	}
	if resp.Makespan < 0 || resp.Plan == "" {
		t.Fatalf("metadata missing: %+v", resp)
	}
}

// fill reads as an endless run of one byte.
type fill byte

func (f fill) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(f)
	}
	return len(p), nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestRequestBodyCap streams a body whose one literal is maxRequestBytes
// long to /query and to /update, and hands each handler a body that
// declares maxRequestBytes+1 bytes: each answers 413 with an
// {"error": ...} body, reads none of a declared over-cap body, runs or
// applies nothing, holds no admission slot, and the next query answers.
func TestRequestBodyCap(t *testing.T) {
	s, ts := testServer(t)
	c := NewClient(ts.URL)
	for _, path := range []string{"/query", "/update"} {
		body := &countingReader{r: fill('a')}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = maxRequestBytes + 1
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "too large") || body.n != 0 {
			t.Fatalf("%s declaring %d bytes: status %d, body %q, %d bytes read; want 413, the reason and none read",
				path, req.ContentLength, rec.Code, rec.Body.String(), body.n)
		}
	}
	for _, tc := range []struct{ path, head, tail string }{
		{"/query", `{"query":"SELECT ?s WHERE { ?s ?p \"`, `\" . }"}`},
		{"/update", `{"update":"INSERT DATA { <http://x/capped> <http://x/name> \"`, `\" . }"}`},
	} {
		body := io.MultiReader(strings.NewReader(tc.head), io.LimitReader(fill('a'), maxRequestBytes), strings.NewReader(tc.tail))
		resp, err := c.HTTP.Post(ts.URL+tc.path, "application/json", body)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		var msg struct {
			Error string `json:"error"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || derr != nil || !strings.Contains(msg.Error, "too large") {
			t.Fatalf("%s: status %d, error %q (%v); want 413 and the reason", tc.path, resp.StatusCode, msg.Error, derr)
		}
	}
	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nids_inflight_queries 0\n", "\nids_queries_total 0\n", "\nids_updates_total 0\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics lack %q after two refused bodies:\n%s", strings.TrimSpace(want), text)
		}
	}
	resp, err := c.Query(`SELECT ?n WHERE { <http://x/capped> <http://x/name> ?n . }`)
	if err != nil || len(resp.Rows) != 0 {
		t.Fatalf("query after the refused bodies: %v, %v", resp, err)
	}
}

func TestHTTPQueryError(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)
	if _, err := c.Query(`SELECT nonsense`); err == nil {
		t.Fatal("bad query accepted")
	}
	if !strings.Contains(strings.ToLower(
		func() string { _, err := c.Query(`SELECT nonsense`); return err.Error() }()), "sparql") {
		t.Fatal("error message lost")
	}
}

func TestHTTPModuleLoadAndReload(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)
	if err := c.LoadModule("m", `def yes(x) { return true }`); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Query(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(m.yes(?a)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 5 {
		t.Fatalf("rows = %d", len(resp.Rows))
	}
	if err := c.ReloadModule("m", `def yes(x) { return x > 50 }`); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Query(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(m.yes(?a)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 1 { // edsger, 72
		t.Fatalf("rows after reload = %d", len(resp.Rows))
	}
	if err := c.LoadModule("bad", `not a module`); err == nil {
		t.Fatal("bad module accepted")
	}
}

func TestHTTPProfileAndStats(t *testing.T) {
	_, ts := testServer(t)
	c := NewClient(ts.URL)
	if err := c.LoadModule("m", `def pass(x) { return true }`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(m.pass(?a)) }`); err != nil {
		t.Fatal(err)
	}
	prof, err := c.Profile()
	if err != nil {
		t.Fatal(err)
	}
	if prof["m.pass"].Execs != 5 {
		t.Fatalf("profile = %+v", prof)
	}
	// The counters ids-cli stats prints beside the profile's UDF names.
	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\nids_queries_total 1\n", "\nids_updates_total 0\n", "\nids_graph_triples "} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q", strings.TrimSpace(want))
		}
	}
}

func TestHTTPSnapshotRoundTrip(t *testing.T) {
	s, ts := testServer(t)
	c := NewClient(ts.URL)
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := kg.LoadSnapshot(&buf, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != s.Engine.Graph.Len() {
		t.Fatalf("restored %d triples, want %d", g.Len(), s.Engine.Graph.Len())
	}
	// The restored graph is immediately queryable.
	e2, err := NewEngine(g, mpp.Topology{Nodes: 2, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e2.Query(`SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/name> ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Num != 5 {
		t.Fatalf("count after restore = %v", res.Rows[0][0])
	}
}

func TestProfilerAccessor(t *testing.T) {
	e := newEngine(t, 2)
	if e.profilers[0] == nil || e.profilers[1] == nil {
		t.Fatal("nil rank profiler")
	}
	if e.profilers[0] == e.profilers[1] {
		t.Fatal("ranks share a profiler")
	}
}

func TestLauncherLifecycle(t *testing.T) {
	dir := t.TempDir()
	nt := filepath.Join(dir, "data.nt")
	data := `<http://x/s1> <http://x/p> "v1" .
<http://x/s2> <http://x/p> "v2" .
`
	if err := os.WriteFile(nt, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	inst, err := Launcher{}.Launch(LaunchConfig{
		NTriplesPath: nt,
		Topo:         mpp.Topology{Nodes: 2, RanksPerNode: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Teardown()

	c := inst.Client()
	if !healthy(c) {
		t.Fatal("instance not healthy")
	}
	resp, err := c.Query(`SELECT ?s ?v WHERE { ?s <http://x/p> ?v . } ORDER BY ?v`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Rows) != 2 {
		t.Fatalf("rows = %d", len(resp.Rows))
	}
	if err := c.LoadModule("mod", `def id(x) { return x }`); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	inst.DumpLogs(&buf)
	logs := buf.String()
	if !strings.Contains(logs, "agent started") {
		t.Fatalf("logs = %q", logs)
	}
	if err := inst.Teardown(); err != nil {
		t.Fatal(err)
	}
	// Idempotent teardown.
	if err := inst.Teardown(); err != nil {
		t.Fatal(err)
	}
	if healthy(c) {
		t.Fatal("endpoint alive after teardown")
	}
}

func TestLauncherErrors(t *testing.T) {
	if _, err := (Launcher{}).Launch(LaunchConfig{NTriplesPath: "/does/not/exist", Topo: mpp.Topology{Nodes: 1, RanksPerNode: 1}}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := (Launcher{}).Launch(LaunchConfig{Topo: mpp.Topology{}}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}
