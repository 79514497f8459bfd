package ids

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path"
	"strings"
	"testing"

	"ids/internal/obs"
)

// TestTracesReadPath drives every request GET /traces answers against
// one store holding a trace in each of its lists: "recent" only in the
// recent list, "lap00" only in the pinned list, and a flight-recorded
// query lapped out of both by 64 pinned traces, so only its profiled
// record still holds it.
func TestTracesReadPath(t *testing.T) {
	e := newEngine(t, 4)
	s := NewServerConfig(e, ServerConfig{SlowQuerySeconds: 1e-9, TailSampleN: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.ring.Put(&obs.QueryTrace{ID: "gone"}, "", false)
	resp, err := NewClient(ts.URL).Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	prof := resp.QID // slow: pinned and flight-recorded
	for i := 0; i < 64; i++ {
		s.ring.Put(&obs.QueryTrace{ID: fmt.Sprintf("lap%02d", i)}, "sample", false)
	}
	s.ring.Put(&obs.QueryTrace{ID: "recent"}, "", false)

	for _, tc := range []struct {
		name, path string
		code       int
		// want must occur in the body (or begin it, with prefix); absent
		// must not occur in it.
		want, absent string
		prefix       bool
	}{
		{name: "id in recent", path: "/traces?id=recent", code: http.StatusOK, want: `"id":"recent"`},
		{name: "id in pinned only", path: "/traces?id=lap00", code: http.StatusOK, want: `"id":"lap00"`},
		{name: "id in profiled only", path: "/traces?id=" + prof, code: http.StatusOK, want: `"id":"` + prof + `"`},
		{name: "evicted id", path: "/traces?id=gone", code: http.StatusNotFound, want: `no stored trace \"gone\"`},
		{name: "heap artifact is gzipped pprof", path: "/traces?id=" + prof + "&artifact=heap", code: http.StatusOK, want: "\x1f\x8b", prefix: true},
		{name: "goroutine artifact is text", path: "/traces?id=" + prof + "&artifact=goroutine", code: http.StatusOK, want: "goroutine"},
		{name: "unknown artifact", path: "/traces?id=" + prof + "&artifact=cpu", code: http.StatusBadRequest, want: `unknown artifact \"cpu\"`},
		{name: "artifact of an unprofiled id", path: "/traces?id=recent&artifact=heap", code: http.StatusNotFound, want: `no profiles kept for \"recent\"`},
		{name: "index lists every list", path: "/traces", code: http.StatusOK, want: `"id":"` + prof + `"`},
		{name: "slow=0 is the whole index", path: "/traces?slow=0", code: http.StatusOK, want: `"id":"recent"`},
		{name: "slow=1 is the slow list", path: "/traces?slow=1", code: http.StatusOK, want: `"id":"` + prof + `"`, absent: `"id":"recent"`},
		{name: "slow that does not parse", path: "/traces?slow=maybe", code: http.StatusBadRequest, want: "not a boolean"},
		{name: "retired trace route", path: path.Join("/", "trace") + "?id=" + prof, code: http.StatusNotFound},
		{name: "retired flight recorder route", path: path.Join("/debug", "flightrec"), code: http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := getBody(t, ts.URL+tc.path)
			if code != tc.code {
				t.Fatalf("GET %s = %d, want %d: %.200s", tc.path, code, tc.code, body)
			}
			if !strings.Contains(body, tc.want) || tc.prefix && !strings.HasPrefix(body, tc.want) {
				t.Fatalf("GET %s body does not carry %q: %.200q", tc.path, tc.want, body)
			}
			if tc.absent != "" && strings.Contains(body, tc.absent) {
				t.Fatalf("GET %s body carries %q", tc.path, tc.absent)
			}
		})
	}

	// The profiled-only query's index row names its capture and sizes.
	row := capturedRow(t, NewClient(ts.URL), prof)
	if row.Capture != "latency" || !row.Slow || row.HeapBytes == 0 || row.GoroutineBytes == 0 {
		t.Fatalf("index row of %s = %+v", prof, row)
	}
}
