package ids

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ids/internal/obs"
	"ids/internal/obs/insights"
)

// TestTraceparentEcho covers W3C trace-context ingest end to end: a
// caller-supplied traceparent header is echoed verbatim in the
// response header and body and stamped on the retained trace; absent
// or malformed headers get a freshly minted valid one.
func TestTraceparentEcho(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const caller = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	post := func(traceparent string) (*QueryResponse, http.Header) {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{Query: `SELECT ?s WHERE { ?s <http://x/name> ?n . }`})
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return &out, resp.Header
	}

	resp, hdr := post(caller)
	if resp.TraceParent != caller {
		t.Fatalf("response traceparent = %q, want caller's %q", resp.TraceParent, caller)
	}
	if got := hdr.Get("Traceparent"); got != caller {
		t.Fatalf("response header traceparent = %q, want %q", got, caller)
	}
	tr := s.ring.Get(resp.QID)
	if tr == nil {
		t.Fatalf("trace %s not retained", resp.QID)
	}
	if tr.TraceParent != caller {
		t.Fatalf("stored trace traceparent = %q, want %q", tr.TraceParent, caller)
	}
	if tr.Fingerprint == "" || tr.Fingerprint != resp.Fingerprint {
		t.Fatalf("trace fingerprint %q vs response %q", tr.Fingerprint, resp.Fingerprint)
	}

	// No header: a fresh, valid context is minted and echoed.
	resp, _ = post("")
	if _, err := obs.ParseTraceparent(resp.TraceParent); err != nil {
		t.Fatalf("minted traceparent %q invalid: %v", resp.TraceParent, err)
	}
	// Malformed header: rejected, fresh mint instead.
	resp2, _ := post("00-zzzz-bad-01")
	if _, err := obs.ParseTraceparent(resp2.TraceParent); err != nil {
		t.Fatalf("traceparent after malformed header %q invalid: %v", resp2.TraceParent, err)
	}
	if resp2.TraceParent == resp.TraceParent {
		t.Fatal("two minted traceparents collide")
	}
}

// TestTraceparentInLogs: log lines for a traced query carry the
// resolved traceparent, stamped by the context-aware handler.
func TestTraceparentInLogs(t *testing.T) {
	var logBuf syncBuffer
	logger, err := obs.NewLogger(&logBuf, "json", slog.LevelDebug)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, 4)
	e.SetLogger(logger)
	s := NewServerConfig(e, ServerConfig{Logger: logger})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const caller = "00-1af7651916cd43dd8448eb211c80319c-c7ad6b7169203331-01"
	body, _ := json.Marshal(QueryRequest{Query: `SELECT ?s WHERE { ?s <http://x/name> ?n . }`})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewReader(body))
	req.Header.Set("traceparent", caller)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	logs := logBuf.String()
	want := fmt.Sprintf("%q:%q", "traceparent", caller)
	if !strings.Contains(logs, want) {
		t.Fatalf("log stream missing %s:\n%s", want, logs)
	}
	if !strings.Contains(logs, "query done") {
		t.Fatalf("log stream missing completion line:\n%s", logs)
	}
}

// TestTailSamplingRetention: with 1-in-N sampling disabled, a fast
// query's trace stays in the recent ring but is NOT tail-retained,
// while with an always-breached latency budget the trace is retained
// with reason "slow" — the deterministic fast-dropped / slow-retained
// pair the CI smoke asserts over HTTP.
func TestTailSamplingRetention(t *testing.T) {
	q := `SELECT ?s WHERE { ?s <http://x/name> ?n . }`

	// Threshold far above any people-graph query: nothing retained.
	fast := NewServerConfig(newEngine(t, 4), ServerConfig{SlowQuerySeconds: 30, TailSampleN: -1})
	cf, done := clientFor(t, fast)
	defer done()
	respF, err := cf.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if respF.TailRetained || respF.TailReason != "" {
		t.Fatalf("fast query retained: %+v", respF)
	}
	for _, e := range fast.ring.Index() {
		if e.Retained {
			t.Fatalf("fast server retained %+v, want nothing", e)
		}
	}
	if tr := fast.ring.Get(respF.QID); tr == nil {
		t.Fatal("dropped query no longer in the recent ring")
	}

	// Threshold below any wall time: everything retained as slow.
	slow := NewServerConfig(newEngine(t, 4), ServerConfig{SlowQuerySeconds: 1e-9, TailSampleN: -1})
	cs, done2 := clientFor(t, slow)
	defer done2()
	respS, err := cs.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !respS.TailRetained || !strings.Contains(respS.TailReason, "slow") {
		t.Fatalf("slow query not retained as slow: %+v", respS)
	}
	retained := slow.ring.Slow()
	if len(retained) != 1 || retained[0].ID != respS.QID {
		t.Fatalf("retained index = %+v, want just %s", retained, respS.QID)
	}
	if !retained[0].Retained || !strings.Contains(retained[0].TailReason, "slow") {
		t.Fatalf("retained entry missing tail stamp: %+v", retained[0])
	}

	// Errors are always tail-worthy: retained with reason "error".
	if _, err := cs.Query(`SELECT ?s WHERE {`); err == nil {
		t.Fatal("parse error accepted")
	}
	found := false
	for _, e := range slow.ring.Index() {
		if e.TailReason == "error" {
			found = e.Retained && !e.Slow
		}
	}
	if !found {
		t.Fatalf("no error-retained trace in %+v", slow.ring.Index())
	}

	// /traces?slow=1 lists only slow verdicts: with a threshold no
	// query reaches, the first sighting's "sample" pin is retained but
	// not listed.
	sampled := NewServerConfig(newEngine(t, 4), ServerConfig{SlowQuerySeconds: 30})
	cd, done3 := clientFor(t, sampled)
	defer done3()
	respD, err := cd.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if respD.TailReason != "sample" {
		t.Fatalf("first sighting reason = %q, want sample", respD.TailReason)
	}
	if listed := getTraces(t, cd.Base+"/traces?slow=1"); len(listed) != 0 {
		t.Fatalf("/traces?slow=1 lists non-slow traces: %+v", listed)
	}
}

// getTraces fetches a /traces listing.
func getTraces(t *testing.T, url string) []obs.TraceIndexEntry {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Traces []obs.TraceIndexEntry `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.Traces
}

// TestInsightsEndpoint drives a mixed workload and checks /insights:
// shapes aggregate by fingerprint (literal variations collapse into
// one row), the hot shape ranks first, and its statistics are
// populated. First-occurrence sampling marks the first query of each
// shape retained.
func TestInsightsEndpoint(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{})
	c, done := clientFor(t, s)
	defer done()

	// Hot shape: same structure, distinct literals — one fingerprint.
	thresholds := []int{10, 20, 30, 35, 40, 50, 60, 70}
	var hotFP string
	for _, th := range thresholds {
		resp, err := c.Query(fmt.Sprintf(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a > %d) }`, th))
		if err != nil {
			t.Fatal(err)
		}
		if hotFP == "" {
			hotFP = resp.Fingerprint
			if !resp.TailRetained || !strings.Contains(resp.TailReason, "sample") {
				t.Fatalf("first occurrence of a shape not sample-retained: %+v", resp)
			}
		} else if resp.Fingerprint != hotFP {
			t.Fatalf("literal variation changed fingerprint: %s vs %s", resp.Fingerprint, hotFP)
		}
	}
	// Cold shape: structurally different, one execution.
	respCold, err := c.Query(`SELECT ?s ?n WHERE { ?s <http://x/age> ?n . } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	if respCold.Fingerprint == hotFP {
		t.Fatal("structurally different query shares the hot fingerprint")
	}

	snap, err := c.Insights(0)
	if err != nil {
		t.Fatal(err)
	}
	if snap.TotalQueries != uint64(len(thresholds))+1 {
		t.Fatalf("total queries = %d, want %d", snap.TotalQueries, len(thresholds)+1)
	}
	if len(snap.Fingerprints) != 2 {
		t.Fatalf("tracked %d fingerprints, want 2: %+v", len(snap.Fingerprints), snap.Fingerprints)
	}
	top := snap.Fingerprints[0]
	if top.Fingerprint != hotFP {
		t.Fatalf("top fingerprint = %s, want hot %s", top.Fingerprint, hotFP)
	}
	if top.Count != uint64(len(thresholds)) {
		t.Fatalf("hot count = %d, want %d", top.Count, len(thresholds))
	}
	if top.LatencyP50 <= 0 || top.LatencyP99 < top.LatencyP50 {
		t.Fatalf("latency quantiles unpopulated: %+v", top)
	}
	if top.AllocP99 <= 0 || top.AllocTotal == 0 {
		t.Fatalf("alloc stats unpopulated: %+v", top)
	}
	if top.Query == "" || top.LastQID == "" {
		t.Fatalf("exemplar query/qid missing: %+v", top)
	}
	// ?top=1 limits the rows.
	snap1, err := c.Insights(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap1.Fingerprints) != 1 || snap1.Fingerprints[0].Fingerprint != hotFP {
		t.Fatalf("top=1 returned %+v", snap1.Fingerprints)
	}
}

// TestInsightsFlightRecordLink: a budget-breaching query's flight
// record carries its fingerprint, and /insights joins the capture back
// onto the shape's row.
func TestInsightsFlightRecordLink(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{
		SlowQuerySeconds: 1e-9, // every query breaches
		TailSampleN:      -1,
	})
	c, done := clientFor(t, s)
	defer done()

	resp, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	row0 := capturedRow(t, c, resp.QID)
	if row0.Capture == "" {
		t.Fatalf("no flight record for %s: %+v", resp.QID, row0)
	}
	if row0.Fingerprint != resp.Fingerprint {
		t.Fatalf("flight record fingerprint = %q, want %q", row0.Fingerprint, resp.Fingerprint)
	}
	snap, err := c.Insights(0)
	if err != nil {
		t.Fatal(err)
	}
	var row *insights.FingerprintStats
	for i := range snap.Fingerprints {
		if snap.Fingerprints[i].Fingerprint == resp.Fingerprint {
			row = &snap.Fingerprints[i]
		}
	}
	if row == nil {
		t.Fatalf("no insights row for %s", resp.Fingerprint)
	}
	if len(row.FlightRecords) != 1 || row.FlightRecords[0] != resp.QID {
		t.Fatalf("insights flight records = %v, want [%s]", row.FlightRecords, resp.QID)
	}
}
