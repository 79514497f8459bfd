package ids

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ids/internal/obs"
)

// TestBuildInfoMetric pins the ids_build_info gauge: one series, value
// 1, carrying the build identity as labels.
func TestBuildInfoMetric(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{})
	c, done := clientFor(t, s)
	defer done()

	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	var line string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, "ids_build_info{") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("/metrics missing ids_build_info:\n%s", text)
	}
	for _, want := range []string{
		`version="` + Version + `"`,
		fmt.Sprintf("go_version=%q", runtime.Version()),
		fmt.Sprintf("gomaxprocs=\"%d\"", runtime.GOMAXPROCS(0)),
		`fsync="in-memory"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("ids_build_info missing label %s: %s", want, line)
		}
	}
	if !strings.HasSuffix(line, " 1") {
		t.Errorf("ids_build_info value != 1: %s", line)
	}

	// The gauge's labels are immutable after first set: a second call
	// must not add another series.
	e.SetBuildInfo("always")
	text, err = c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(text, "ids_build_info{"); n != 1 {
		t.Errorf("ids_build_info series count = %d after second SetBuildInfo", n)
	}
	if strings.Contains(text, `fsync="always"`) {
		t.Error("second SetBuildInfo overwrote the first")
	}
}

// TestExplainAnalyzeResourceAttribution is the tentpole acceptance
// path: a traced query must carry per-operator allocation estimates
// whose sum reconciles against the query-level runtime/metrics delta
// (under-estimate by design, never an over-estimate), and the EXPLAIN
// ANALYZE rendering must surface both.
func TestExplainAnalyzeResourceAttribution(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{})
	c, done := clientFor(t, s)
	defer done()

	resp, err := c.QueryExplain(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . ?s <http://x/age> ?a . } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	tr := resp.Trace
	if tr == nil || tr.Resources == nil {
		t.Fatalf("traced query missing resource block: %+v", tr)
	}
	ru := tr.Resources
	if ru.AllocBytes <= 0 || ru.Mallocs <= 0 {
		t.Fatalf("query-level alloc delta = %d bytes / %d mallocs", ru.AllocBytes, ru.Mallocs)
	}
	if ru.OpAllocBytes <= 0 || ru.OpMallocs <= 0 {
		t.Fatalf("operator-accounted alloc = %d bytes / %d mallocs", ru.OpAllocBytes, ru.OpMallocs)
	}
	// The reconciliation invariant: operator estimates are deliberate
	// under-estimates of the physical delta.
	if ru.OpAllocBytes > ru.AllocBytes {
		t.Fatalf("op-accounted bytes %d exceed physical delta %d", ru.OpAllocBytes, ru.AllocBytes)
	}
	if ru.OpMallocs > ru.Mallocs {
		t.Fatalf("op-accounted mallocs %d exceed physical delta %d", ru.OpMallocs, ru.Mallocs)
	}
	if cov := ru.OpCoverage(); cov <= 0 || cov > 1 {
		t.Fatalf("OpCoverage = %f, want (0, 1]", cov)
	}
	if ru.CPUSeconds < 0 {
		t.Fatalf("cpu proxy negative: %f", ru.CPUSeconds)
	}

	// Per-operator attribution: at least the scans materialize rows.
	var opAlloc, opCPU int
	for _, op := range tr.Ops {
		if op.AllocBytes > 0 {
			opAlloc++
		}
		if op.CPUSeconds > 0 {
			opCPU++
		}
	}
	if opAlloc == 0 {
		t.Error("no operator carries alloc attribution")
	}
	if opCPU == 0 {
		t.Error("no operator carries CPU attribution")
	}

	// The rendering surfaces the resource header and the new columns.
	var sb strings.Builder
	tr.Render(&sb, true)
	out := sb.String()
	for _, want := range []string{"resources: alloc", "op-accounted", "cpu(s)", "alloc", "mallocs"} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE missing %q:\n%s", want, out)
		}
	}

	// The alloc histogram is exposed with a trace-ID exemplar linking
	// back to this query.
	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "ids_query_alloc_bytes_bucket") {
		t.Error("/metrics missing ids_query_alloc_bytes histogram")
	}
	if !strings.Contains(text, `trace_id="`+resp.QID+`"`) {
		t.Errorf("/metrics missing exemplar for %s", resp.QID)
	}
	if !strings.Contains(text, `ids_op_alloc_bytes_total{op="scan"}`) {
		t.Error("/metrics missing per-operator alloc counter for scan")
	}
}

// TestMetricsContentNegotiation pins the exposition split on /metrics:
// a plain scrape gets classic 0.0.4 with no exemplar syntax (the 0.0.4
// parser reads the '#' after a sample value as a malformed timestamp
// and fails the entire scrape), while a scraper sending
// Accept: application/openmetrics-text gets the exemplar-bearing
// exposition with its mandatory `# EOF` terminator.
func TestMetricsContentNegotiation(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{})
	c, done := clientFor(t, s)
	defer done()

	// Every query is traced, so this pins trace-ID exemplars in the
	// latency and alloc histograms.
	if _, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`); err != nil {
		t.Fatal(err)
	}

	code, ct, body := getBody(t, c.Base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("plain /metrics status = %d", code)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("plain /metrics content-type = %q", ct)
	}
	if strings.Contains(body, "trace_id") {
		t.Error("0.0.4 exposition carries exemplars — classic Prometheus parsers reject them")
	}
	if strings.Contains(body, "# EOF") {
		t.Error("0.0.4 exposition carries the OpenMetrics terminator")
	}

	req, err := http.NewRequest(http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	om := string(b)
	if got := resp.Header.Get("Content-Type"); !strings.HasPrefix(got, "application/openmetrics-text") {
		t.Errorf("OpenMetrics content-type = %q", got)
	}
	if !strings.Contains(om, "trace_id") {
		t.Error("OpenMetrics exposition missing exemplars")
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}
}

// capturedRow returns the /traces index row of qid, failing the test
// when the index does not list it.
func capturedRow(t *testing.T, c *Client, qid string) obs.TraceIndexEntry {
	t.Helper()
	idx, err := c.Traces()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range idx.Traces {
		if e.ID == qid {
			return e
		}
	}
	t.Fatalf("/traces does not list %s: %+v", qid, idx.Traces)
	return obs.TraceIndexEntry{}
}

// TestFlightRecorderEndToEnd drives a budget-breaching query and
// retrieves its flight record — index row, trace, and both profile
// artifacts — through GET /traces.
func TestFlightRecorderEndToEnd(t *testing.T) {
	e := newEngine(t, 4)
	// Threshold 0-adjacent so every query breaches.
	s := NewServerConfig(e, ServerConfig{SlowQuerySeconds: 1e-9})
	c, done := clientFor(t, s)
	defer done()

	resp, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}

	entry := capturedRow(t, c, resp.QID)
	if entry.Capture != "latency" {
		t.Fatalf("index entry = %+v, want capture latency", entry)
	}
	if entry.HeapBytes == 0 || entry.GoroutineBytes == 0 {
		t.Fatalf("index reports empty artifacts: %+v", entry)
	}

	tr, err := c.Trace(resp.QID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != resp.QID || tr.WallSeconds <= 0 {
		t.Fatalf("trace = id %q wall %f", tr.ID, tr.WallSeconds)
	}

	var heap, gor bytes.Buffer
	if err := c.TraceArtifact(resp.QID, "heap", &heap); err != nil {
		t.Fatal(err)
	}
	if heap.Len() != entry.HeapBytes {
		t.Errorf("heap artifact is %d bytes, index says %d", heap.Len(), entry.HeapBytes)
	}
	if err := c.TraceArtifact(resp.QID, "goroutine", &gor); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(gor.Bytes(), []byte("goroutine")) {
		t.Errorf("goroutine artifact not a text dump (%d bytes)", gor.Len())
	}

	// Error paths carry the server's message: unknown qid, unknown artifact.
	if _, err := c.Trace("q999999"); err == nil ||
		!strings.Contains(err.Error(), `no stored trace "q999999"`) {
		t.Errorf("unknown qid error = %v", err)
	}
	if err := c.TraceArtifact(resp.QID, "cpu", &bytes.Buffer{}); err == nil ||
		!strings.Contains(err.Error(), `unknown artifact "cpu"`) {
		t.Errorf("unknown artifact error = %v", err)
	}

	// The capture surfaced on /metrics too.
	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "ids_flightrec_captures_total 1") {
		t.Errorf("/metrics missing flight recorder counter:\n%s", text)
	}
}

// TestFlightRecorderAllocBudget breaches only the allocation budget
// (latency threshold off) and expects capture reason "alloc".
func TestFlightRecorderAllocBudget(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{
		SlowQueryAllocBytes: 1, // every query allocates more than this
	})
	c, done := clientFor(t, s)
	defer done()

	resp, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if row := capturedRow(t, c, resp.QID); row.Capture != "alloc" || row.Slow {
		t.Fatalf("index row = %+v, want capture alloc, not slow", row)
	}
	tr, err := c.Trace(resp.QID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Resources == nil || tr.Resources.AllocBytes <= 0 {
		t.Fatalf("trace resources = %+v", tr.Resources)
	}
}

// TestFlightRecorderQuietWhenNoBudget checks the recorder stays empty
// when no budget is configured.
func TestFlightRecorderQuietWhenNoBudget(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{})
	c, done := clientFor(t, s)
	defer done()

	resp, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if row := capturedRow(t, c, resp.QID); row.Capture != "" || row.HeapBytes != 0 {
		t.Fatalf("unexpected capture without budgets: %+v", row)
	}
}

// TestAttributionInvariantsConcurrent hammers one engine with traced
// queries racing updates and asserts, per trace, the attribution
// invariant (0 < op-accounted <= physical delta) and, globally, that
// the alloc counters only grow. Run under -race this also proves the
// counters are torn-read free.
func TestAttributionInvariantsConcurrent(t *testing.T) {
	e := newEngine(t, 2)
	q := `SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n`

	total0 := e.Metrics().Counter("ids_query_alloc_bytes_total").Value()

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	traces := make(chan *obs.QueryTrace, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := e.QueryTraced(q)
				if err != nil {
					errCh <- err
					return
				}
				traces <- res.Trace
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			u := fmt.Sprintf("INSERT DATA { <http://x/u%d> <http://x/name> \"u%d\" . }", i, i)
			if _, err := e.Update(u); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	close(traces)
	for err := range errCh {
		t.Fatal(err)
	}

	n := 0
	for tr := range traces {
		n++
		ru := tr.Resources
		if ru == nil {
			t.Fatalf("trace %s missing resources", tr.ID)
		}
		if ru.OpAllocBytes <= 0 {
			t.Errorf("trace %s: op-accounted bytes = %d", tr.ID, ru.OpAllocBytes)
		}
		// Under concurrency the physical delta over-attributes (it sees
		// other goroutines' allocations) while the op estimates
		// under-count, so the inequality must never flip.
		if ru.OpAllocBytes > ru.AllocBytes {
			t.Errorf("trace %s: op-accounted %d > physical %d", tr.ID, ru.OpAllocBytes, ru.AllocBytes)
		}
		if ru.OpMallocs > ru.Mallocs {
			t.Errorf("trace %s: op mallocs %d > physical %d", tr.ID, ru.OpMallocs, ru.Mallocs)
		}
	}
	if n != 32 {
		t.Fatalf("collected %d traces, want 32", n)
	}

	total1 := e.Metrics().Counter("ids_query_alloc_bytes_total").Value()
	if total1 <= total0 {
		t.Errorf("ids_query_alloc_bytes_total did not grow: %f -> %f", total0, total1)
	}
}

// TestExplainHeaderQueueWait pins the EXPLAIN ANALYZE header: the
// resource line of a served query and the admission queue-wait line.
func TestExplainHeaderQueueWait(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{})
	c, done := clientFor(t, s)
	defer done()

	resp, err := c.QueryExplain(`SELECT ?s WHERE { ?s <http://x/age> ?a . }`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("explain response carries no trace")
	}
	var sb strings.Builder
	resp.Trace.Render(&sb, true)
	if out := sb.String(); !strings.Contains(out, "resources: alloc") {
		t.Errorf("EXPLAIN header missing resources line:\n%s", out)
	}

	// Queue wait renders when positive (synthesized here; end-to-end
	// queueing needs a saturated admission controller).
	tr := &obs.QueryTrace{ID: "q42", Status: "ok", QueueWaitSeconds: 0.25}
	sb.Reset()
	tr.Render(&sb, false)
	if !strings.Contains(sb.String(), "admission queue-wait 0.250000s") {
		t.Errorf("queue-wait line missing:\n%s", sb.String())
	}
}
