package ids

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"ids/internal/dict"
	"ids/internal/exec"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/obs"
)

// awkwardGraph holds the terms an encoder gets wrong: quotes,
// backslashes, control bytes, non-ASCII, HTML metacharacters, typed
// literals, blank nodes.
func awkwardGraph(shards int) *kg.Graph {
	g := kg.New(shards)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	p := iri("http://x/v")
	for i, o := range []dict.Term{
		{Kind: dict.Literal, Value: `say "hi" \ bye`},
		{Kind: dict.Literal, Value: "tab\there\nline\x00\x1f\x7f"},
		{Kind: dict.Literal, Value: "naïve 日本語 \U0001F9EC"},
		{Kind: dict.Literal, Value: "<b>&amp;</b>"},
		{Kind: dict.Literal, Value: ""},
		{Kind: dict.Literal, Value: "3.5", Datatype: "http://www.w3.org/2001/XMLSchema#double"},
		{Kind: dict.Literal, Value: `q"`, Datatype: `http://x/d"t`},
		{Kind: dict.Blank, Value: "b0"},
		{Kind: dict.IRI, Value: `http://x/o?a=1&b="2"`},
		{Kind: dict.IRI, Value: "http://x/é"},
	} {
		g.Add(iri(fmt.Sprintf("http://x/s%d", i)), p, o)
	}
	g.Seal()
	return g
}

// rowsJSONQueries is the equivalence corpus (aggregates, BIND values,
// OPTIONAL nulls included) plus the shapes the corpus lacks.
func rowsJSONQueries() []string {
	return append(clockQueries(),
		`SELECT ?s WHERE { ?s <http://x/nosuch> ?o . }`,                                       // empty
		`SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://x/nosuch> ?o . }`,                        // one computed cell
		`SELECT ?s ?o ?d WHERE { ?s <http://x/v> ?o . OPTIONAL { ?s <http://x/desc> ?d . } }`, // awkward terms
	)
}

// decodeQueryResponse runs writeQueryResponse into a recorder and
// decodes the body as the client does, which must take the fast path
// and agree with json.Unmarshal.
func decodeQueryResponse(t *testing.T, e *Engine, resp *QueryResponse, res *Result) (QueryResponse, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	if err := writeQueryResponse(rec, e.Graph.Dict.Snapshot(), resp, res.Rows); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	got, fast := checkClientDecode(t, rec.Body.Bytes())
	if !fast {
		t.Fatalf("the client decoder refused a body the server wrote:\n%s", rec.Body.Bytes())
	}
	return got, rec.Body.Bytes()
}

// TestRowsJSONMatchesStrings is the wire contract: for every corpus
// query the rows a client decodes are Engine.Strings of the same
// result, string for string and in order.
func TestRowsJSONMatchesStrings(t *testing.T) {
	awk, err := NewEngine(awkwardGraph(2), mpp.Topology{Nodes: 1, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]*Engine{"corpus": equivEngine(t, 4), "awkward": awk} {
		registerHalf(t, e)
		for _, q := range rowsJSONQueries() {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", name, q, err)
			}
			got, body := decodeQueryResponse(t, e, &QueryResponse{Vars: res.Vars}, res)
			if want := e.Strings(res); !reflect.DeepEqual(got.Rows, want) {
				t.Fatalf("%s: %q:\n decoded %q\n Strings %q", name, q, got.Rows, want)
			}
			if len(res.Rows) == 0 && !bytes.Contains(body, []byte(`"rows":[]`)) {
				t.Fatalf("%s: %q: empty result must encode as [] (a client's Rows stays non-nil): %s", name, q, body)
			}
		}
	}
}

// TestQueryResponseEnvelope holds queryResponseHead/Tail in step with
// QueryResponse: the spliced body and json.Marshal of the same
// QueryResponse decode to the same document, trace included.
func TestQueryResponseEnvelope(t *testing.T) {
	e := equivEngine(t, 2)
	res, err := e.QueryTraced(`SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s <http://x/tag> ?t . } GROUP BY ?t ORDER BY ?t`)
	if err != nil {
		t.Fatal(err)
	}
	// Every field set, so none hides behind omitempty.
	resp := QueryResponse{
		QID: "q000042", TraceParent: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		Vars: res.Vars, Makespan: res.Report.Makespan, Phases: res.Report.Phases,
		Plan: res.Plan.Explain(), WallTime: 0.25, TraceID: res.Trace.ID, Fingerprint: "fp",
		TailRetained: true, TailReason: "slow", Trace: res.Trace,
	}
	typ := reflect.TypeOf(resp)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "Rows" && reflect.ValueOf(resp).Field(i).IsZero() {
			t.Fatalf("QueryResponse.%s is unset: a new field needs a place in queryResponseHead/Tail and a value here", f.Name)
		}
	}
	_, body := decodeQueryResponse(t, e, &resp, res)
	resp.Rows = e.Strings(res)
	ref, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var got, want map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ref, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("envelope drifted from json.Marshal(QueryResponse):\n got  %s\n want %s", body, ref)
	}
	if !bytes.HasSuffix(body, []byte("}\n")) {
		t.Fatalf("body should end like json.Encoder's: %q", body[len(body)-10:])
	}
}

// TestEquivServerRoundTrip drives the corpus through a real server and
// client: what Client.Query returns, and what the client decoder makes
// of the raw body on its fast path, is what Engine.Strings renders for
// the same query (as sets: two runs of a hash join need not agree on
// order).
func TestEquivServerRoundTrip(t *testing.T) {
	e := equivEngine(t, 4)
	registerHalf(t, e)
	ts := httptest.NewServer(NewServerConfig(e, ServerConfig{}).Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	sorted := func(rows [][]string) []string {
		out := make([]string, 0, len(rows))
		for _, r := range rows {
			out = append(out, strings.Join(r, "\x1f"))
		}
		sort.Strings(out)
		return out
	}
	for _, q := range rowsJSONQueries() {
		resp, err := c.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Rows == nil {
			t.Fatalf("%q: Rows decoded as nil", q)
		}
		if got, want := sorted(resp.Rows), sorted(e.Strings(res)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n client %q\n engine %q", q, got, want)
		}
		var raw bytes.Buffer
		if err := c.post("/query", QueryRequest{Query: q}, &raw); err != nil {
			t.Fatal(err)
		}
		dec, fast := checkClientDecode(t, raw.Bytes())
		if !fast {
			t.Fatalf("%q: the client decoder refused the server's body:\n%s", q, raw.Bytes())
		}
		if got, want := sorted(dec.Rows), sorted(e.Strings(res)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n decoded %q\n engine  %q", q, got, want)
		}
		if !reflect.DeepEqual(resp.Vars, res.Vars) {
			t.Fatalf("%q: vars %v vs %v", q, resp.Vars, res.Vars)
		}
	}
}

// exportGraph is bulk_export in miniature: n subjects, each with a
// mnemonic and a 240-character sequence, selected by a flag.
func exportGraph(shards, n int) *kg.Graph {
	g := kg.New(shards)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	const amino = "ACDEFGHIKLMNPQRSTVWY"
	seq := make([]byte, 240)
	for i := 0; i < n; i++ {
		s := iri(fmt.Sprintf("http://x/protein/U%05d", i))
		for j := range seq {
			seq[j] = amino[(i*7+j*13+i*j)%len(amino)]
		}
		g.Add(s, iri("http://x/reviewed"), lit("false"))
		g.Add(s, iri("http://x/mnemonic"), lit(fmt.Sprintf("U%05d_SYNTH", i)))
		g.Add(s, iri("http://x/sequence"), lit(string(seq)))
	}
	g.Seal()
	return g
}

const exportQuery = `SELECT ?p ?m ?q WHERE { ?p <http://x/reviewed> "false" . ?p <http://x/mnemonic> ?m . ?p <http://x/sequence> ?q . }`

// discardWriter is an http.ResponseWriter that keeps nothing.
type discardWriter struct {
	h http.Header
	n int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// TestRowsJSONLargeAnswer pushes an answer through many flushes of the
// pooled buffer and checks nothing is lost or repeated at the seams.
func TestRowsJSONLargeAnswer(t *testing.T) {
	e, err := NewEngine(exportGraph(4, 1500), mpp.Topology{Nodes: 2, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(exportQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, body := decodeQueryResponse(t, e, &QueryResponse{Vars: res.Vars}, res)
	if len(body) < 8*rowsChunk {
		t.Fatalf("body of %d bytes does not exercise the chunking (chunk %d)", len(body), rowsChunk)
	}
	if want := e.Strings(res); len(want) != 1500 || !reflect.DeepEqual(got.Rows, want) {
		t.Fatalf("large answer differs from Strings (%d vs %d rows)", len(got.Rows), len(want))
	}
}

// TestRowsJSONAllocCeiling is the single-copy budget of the result
// path: one warm 5,000-row x 3-column answer through the real handler
// — parse, plan, four ranks, gather, finalize, trace, encode, write —
// may allocate at most twice the bytes of the materialized answer
// table itself. An all-gather finalize on four ranks plus
// Strings-then-json.Encoder spent twelve times the table.
func TestRowsJSONAllocCeiling(t *testing.T) {
	e, err := NewEngine(exportGraph(4, 5000), mpp.Topology{Nodes: 2, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := NewServerConfig(e, ServerConfig{}).Handler()
	body, err := json.Marshal(QueryRequest{Query: exportQuery})
	if err != nil {
		t.Fatal(err)
	}
	serve := func() int {
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		return w.n
	}
	for i := 0; i < 3; i++ { // warm the slot's arenas and the buffer pool
		if n := serve(); n < 1<<20 {
			t.Fatalf("response of %d bytes: the query did not return the export", n)
		}
	}
	res, err := e.Query(exportQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5000 || len(res.Vars) != 3 {
		t.Fatalf("answer is %d x %d, want 5000 x 3", len(res.Rows), len(res.Vars))
	}
	table, _ := (&exec.Table{Vars: res.Vars, Rows: res.Rows}).Footprint()

	// The smallest of a few runs: a GC that empties the pools mid-run
	// is the environment's cost, not the path's.
	best := int64(-1)
	for i := 0; i < 5; i++ {
		a0 := obs.ReadAllocs()
		serve()
		b, _ := obs.ReadAllocs().DeltaSince(a0)
		if best < 0 || b < best {
			best = b
		}
	}
	runtime.KeepAlive(res)
	t.Logf("answer table %d B, handler allocated %d B (%.2fx)", table, best, float64(best)/float64(table))
	if best > 2*table {
		t.Fatalf("one export allocated %d B, more than twice its %d B answer table", best, table)
	}
}
