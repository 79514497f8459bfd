package ids

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"ids/internal/expr"
	"ids/internal/fault"
	"ids/internal/mpp"
)

// postStatus POSTs body as JSON to url and returns the response status.
func postStatus(t *testing.T, url string, body any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestQueryPanicIs500: a UDF that panics fails its rank, which mpp
// recovers as ErrPanic. That is the server's fault, not the client's,
// so /query answers 500, and the failure is retained as an error trace.
func TestQueryPanicIs500(t *testing.T) {
	e := newEngine(t, 2)
	if err := e.Reg.Register("boom", func([]expr.Value) (expr.Value, error) { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServerConfig(e, ServerConfig{}).Handler())
	defer ts.Close()

	q := QueryRequest{Query: `SELECT ?s WHERE { ?s <http://x/name> ?n . FILTER(boom(?n)) }`}
	if got := postStatus(t, ts.URL+"/query", q); got != http.StatusInternalServerError {
		t.Fatalf("panicking UDF: status %d, want 500", got)
	}
	if got := postStatus(t, ts.URL+"/query", QueryRequest{Query: `SELECT ?s WHERE {`}); got != http.StatusBadRequest {
		t.Fatalf("malformed query: status %d, want 400", got)
	}

	resp, err := http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var idx struct {
		Traces []struct {
			Status   string `json:"status"`
			Retained bool   `json:"retained"`
			Query    string `json:"query"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&idx); err != nil {
		t.Fatal(err)
	}
	for _, tr := range idx.Traces {
		if tr.Query == q.Query && tr.Status == "error" && tr.Retained {
			return
		}
	}
	t.Fatalf("no retained error trace for the panicking query in /traces: %+v", idx.Traces)
}

// TestWALFailureAnswers503: a write whose WAL fsync fails, and every
// write after it on the now-degraded engine, answer 503 on both update
// endpoints.
func TestWALFailureAnswers503(t *testing.T) {
	update := func(s string) UpdateRequest {
		return UpdateRequest{Update: `INSERT DATA { <http://x/a> <http://x/tag> "` + s + `" . }`}
	}
	upsert := VectorUpsertRequest{Store: "fp", Key: "k", Vector: []float32{1, 0}}
	for _, tc := range []struct {
		name                 string
		failing, rejected    string
		failBody, rejectBody any
	}{
		{"update fails", "/update", "/vector/upsert", update("doomed"), upsert},
		{"upsert fails", "/vector/upsert", "/update", upsert, update("rejected")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := fault.NewInjector(1)
			inj.Disarm()
			inj.Add(fault.Rule{Op: fault.OpSync, Path: "wal-*.seg", Nth: 2})
			inst, err := Launcher{}.Launch(LaunchConfig{
				Topo: mpp.Topology{Nodes: 1, RanksPerNode: 2},
				Durability: &DurabilityConfig{
					Dir:                t.TempDir(),
					FS:                 fault.NewFS(inj),
					CheckpointInterval: -1,
					CheckpointEvery:    -1,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer inst.Teardown()
			inj.Arm()
			base := "http://" + inst.Addr
			if got := postStatus(t, base+"/update", update("ok")); got != http.StatusOK {
				t.Fatalf("first update: status %d, want 200", got)
			}
			if got := postStatus(t, base+tc.failing, tc.failBody); got != http.StatusServiceUnavailable {
				t.Fatalf("failing write %s: status %d, want 503", tc.failing, got)
			}
			if got := postStatus(t, base+tc.rejected, tc.rejectBody); got != http.StatusServiceUnavailable {
				t.Fatalf("write %s on a degraded engine: status %d, want 503", tc.rejected, got)
			}
			if got := postStatus(t, base+"/vector/upsert", VectorUpsertRequest{Store: "fp", Key: "k"}); got != http.StatusBadRequest {
				t.Fatalf("empty vector on a degraded engine: status %d, want 400", got)
			}
		})
	}
}
