package ids

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/obs"
)

// checkClientDecode decodes body through unmarshalQueryResponse and
// through json.Unmarshal, fails the test unless the two agree, error
// included, and reports whether the rows took the fast path.
func checkClientDecode(t *testing.T, body []byte) (QueryResponse, bool) {
	t.Helper()
	orig := bytes.Clone(body)
	var got, want QueryResponse
	fast, err := unmarshalQueryResponse(body, &got)
	werr := json.Unmarshal(body, &want)
	if !reflect.DeepEqual(err, werr) {
		t.Fatalf("error %v, json.Unmarshal's %v\nbody %q", err, werr, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v\njson.Unmarshal %+v\nbody %q", got, want, body)
	}
	if !bytes.Equal(body, orig) {
		t.Fatalf("the decoder wrote to its input")
	}
	return got, fast
}

// TestClientDecodeFallback feeds the decoder bodies it must refuse and
// bodies it must take: a refused one gives exactly what json.Unmarshal
// gives, error included, through json.Unmarshal itself.
func TestClientDecodeFallback(t *testing.T) {
	d := dict.New()
	rows := [][]expr.Value{
		{expr.IDVal(d.Encode(dict.Term{Kind: dict.IRI, Value: "http://x/a"})),
			expr.IDVal(d.Encode(dict.Term{Kind: dict.Literal, Value: `say "hi" \ bye`}))},
		{expr.IDVal(d.Encode(dict.Term{Kind: dict.Blank, Value: "b\x01 "})), expr.String("")},
	}
	rec := httptest.NewRecorder()
	if err := writeQueryResponse(rec, d.Snapshot(), &QueryResponse{QID: "q000007", Vars: []string{"s", "o"},
		Plan: "scan ?s \"x\"\n  join"}, rows); err != nil {
		t.Fatal(err)
	}
	server := rec.Body.String()
	marshaled, err := json.Marshal(QueryResponse{Vars: []string{"s"}, Rows: [][]string{{"<http://x/a>"}}})
	if err != nil {
		t.Fatal(err)
	}
	pretty, err := json.MarshalIndent(QueryResponse{Vars: []string{"s"}, Rows: [][]string{{"a"}}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	withRows := func(rows string) string { return `{"qid":"q","vars":["s"],"rows":` + rows + `,"plan":"p"}` + "\n" }
	for _, tc := range []struct {
		name, body string
		fast       bool
	}{
		{"server body", server, true},
		{"no rows", withRows(`[]`), true},
		{"empty row and cell", withRows(`[[],[""]]`), true},
		{"quote backslash control", withRows(`[["\"\\\u0000\u001f"]]`), true},
		{"no newline", strings.TrimSuffix(withRows(`[["a"]]`), "\n"), true},
		{"html escapes (json.Marshal)", string(marshaled), false},
		{"pretty printed", string(pretty), false},
		{"space after colon", `{"qid":"q","vars":[],"rows": [["a"]]}`, false},
		{"rows null", withRows(`null`), false},
		{"duplicate rows", `{"qid":"q","vars":[],"rows":[["a"]],"plan":"","rows":[]}`, false},
		{"rows by case folding", `{"qid":"q","vars":[],"rows":[["a"]],"ROWS":null}`, false},
		{"rows by escaped key", `{"qid":"q","vars":[],"\u0072ows":[["b"]]}`, false},
		{"second rows by escaped key", `{"qid":"q","vars":[],"rows":[["a"]],"\u0072ows":[]}`, false},
		{"no rows member", `{"qid":"q","vars":[]}`, false},
		{"numeric cell", withRows(`[["a",1]]`), false},
		{"null cell", withRows(`[[null]]`), false},
		{"lone surrogate", withRows(`[["\ud800"]]`), false},
		{"escaped slash", withRows(`[["a\/b"]]`), false},
		{"escaped newline", withRows(`[["a\nb"]]`), false},
		{"upper-case hex", withRows(`[["\u001F"]]`), false},
		{"raw control byte", withRows("[[\"a\tb\"]]"), false},
		{"invalid utf-8", withRows("[[\"a\xffb\"]]"), false},
		{"truncated", server[:len(server)/2], false},
		{"truncated in rows", server[:strings.Index(server, `"rows":`)+12], false},
		{"trailing garbage", server + "x", false},
		{"bad envelope", `{"qid":7,"vars":[],"rows":[["a"]]}`, false},
		{"bad envelope syntax", `{"qid":"q","vars":[,],"rows":[["a"]]}`, false},
		{"empty", "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, fast := checkClientDecode(t, []byte(tc.body)); fast != tc.fast {
				t.Fatalf("fast path %v, want %v: %q", fast, tc.fast, tc.body)
			}
		})
	}
}

// fuzzRows reads result rows from spec, a sequence of (kind, length,
// text) cells: kind 0 ends a row, the others make a dictionary term of
// every kind or an expression value from text.
func fuzzRows(d *dict.Dict, spec []byte) [][]expr.Value {
	var rows [][]expr.Value
	row := []expr.Value{}
	for len(spec) >= 2 {
		kind, n := spec[0]%9, min(int(spec[1]), len(spec)-2)
		text := string(spec[2 : 2+n])
		spec = spec[2+n:]
		var v expr.Value
		switch kind {
		case 0:
			rows, row = append(rows, row), []expr.Value{}
			continue
		case 1:
			v = expr.IDVal(d.Encode(dict.Term{Kind: dict.IRI, Value: text}))
		case 2:
			v = expr.IDVal(d.Encode(dict.Term{Kind: dict.Blank, Value: text}))
		case 3:
			v = expr.IDVal(d.Encode(dict.Term{Kind: dict.Literal, Value: text}))
		case 4:
			v = expr.IDVal(d.Encode(dict.Term{Kind: dict.Literal, Value: text, Datatype: text}))
		case 5:
			v = expr.String(text)
		case 6:
			v = expr.Float(float64(n) / 7)
		case 7:
			v = expr.Bool(n%2 == 0)
		default:
			v = expr.IDVal(dict.ID(1 << 40)) // not in the dictionary
		}
		row = append(row, v)
	}
	if len(row) > 0 {
		rows = append(rows, row)
	}
	return rows
}

// fuzzTrace is the traced query whose plan and trace make the fuzzed
// bodies' tail.
var fuzzTrace = sync.OnceValues(func() (*Result, error) {
	e, err := NewEngine(awkwardGraph(2), mpp.Topology{Nodes: 1, RanksPerNode: 2})
	if err != nil {
		return nil, err
	}
	return e.QueryTraced(`SELECT ?s ?o WHERE { ?s <http://x/v> ?o . FILTER(?o != "x") } ORDER BY ?s`)
})

// FuzzRowsJSON sends arbitrary rows through writeQueryResponse, inside
// a full head and a traced tail, and decodes the body as the client
// does: every body the server writes takes the fast path and decodes to
// what json.Unmarshal gives. The same body with one byte overwritten
// must still decode to json.Unmarshal's answer, by whichever path.
func FuzzRowsJSON(f *testing.F) {
	cell := func(kind byte, text string) []byte { return append([]byte{kind, byte(len(text))}, text...) }
	for _, spec := range [][]byte{
		nil,
		{0, 0},
		bytes.Join([][]byte{cell(1, "http://x/a"), cell(3, `say "hi" \ bye`), cell(0, ""), cell(3, "")}, nil),
		bytes.Join([][]byte{cell(2, "b\x00\x1f\x7f"), cell(4, "q\"\\"), cell(5, "tab\t  "), cell(6, "xyz")}, nil),
		bytes.Join([][]byte{cell(1, "bad\xff\xfeutf8"), cell(3, "\U0001F9EC naïve"), cell(7, ""), cell(8, "")}, nil),
	} {
		f.Add(spec, "scan ?s <http://x/v> \"x\"\n  filter ?o != \"x\"", uint16(0), byte('"'))
	}
	f.Fuzz(func(t *testing.T, spec []byte, plan string, at uint16, b byte) {
		res, err := fuzzTrace()
		if err != nil {
			t.Fatal(err)
		}
		d := dict.New()
		rows := fuzzRows(d, spec)
		resp := &QueryResponse{
			QID: "q000001", TraceParent: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
			Vars: []string{"s", "o\"", "<v>"}, Makespan: 0.5, Phases: map[string]float64{"scan": 0.25},
			Plan: plan + res.Plan.Explain(), WallTime: 0.125, TraceID: res.Trace.ID, Fingerprint: "fp",
			TailRetained: true, TailReason: "slow", Trace: res.Trace,
		}
		rec := httptest.NewRecorder()
		if err := writeQueryResponse(rec, d.Snapshot(), resp, rows); err != nil {
			t.Fatal(err)
		}
		body := rec.Body.Bytes()
		if _, fast := checkClientDecode(t, body); !fast {
			t.Fatalf("a body the server wrote took the slow path:\n%q", body)
		}
		body[int(at)%len(body)] = b
		checkClientDecode(t, body)
	})
}

// TestClientDecodeAllocCeiling is the client's share of the single-copy
// budget: decoding the 5,000-row export allocates the decoded cells, a
// string header per cell and a slice header per row, within 30 %, in
// one allocation per row plus a constant. encoding/json spends nine of
// that constant on the envelope (its decode state, parse stacks and the
// vars slice); a per-cell allocation would add 15,000.
func TestClientDecodeAllocCeiling(t *testing.T) {
	// The race detector makes sync.Pool drop a quarter of what it is
	// given, so there the pooled scratch is not free.
	probe := sync.Pool{New: func() any { return new([]byte) }}
	if testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			probe.Put(probe.Get())
		}
	}) > 0 {
		t.Skip("sync.Pool drops buffers here (race detector): the pooled scratch is not free")
	}
	e, err := NewEngine(exportGraph(4, 5000), mpp.Topology{Nodes: 2, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(exportQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, body := decodeQueryResponse(t, e, &QueryResponse{Vars: res.Vars}, res)
	want := e.Strings(res)
	cellBytes, cells := 0, 0
	for _, r := range want {
		for _, c := range r {
			cellBytes += len(c)
			cells++
		}
	}
	budget := int64(1.3 * float64(cellBytes+16*cells+24*len(want)))
	var out QueryResponse
	decode := func() {
		out = QueryResponse{}
		if fast, err := unmarshalQueryResponse(body, &out); err != nil || !fast {
			t.Fatalf("fast %v, err %v", fast, err)
		}
	}
	decode() // warm the pooled scratch
	// The smallest of a few runs: a GC that empties the pool mid-run is
	// the environment's cost, not the decoder's.
	bestBytes, bestObjs := int64(-1), int64(-1)
	for i := 0; i < 5; i++ {
		a0 := obs.ReadAllocs()
		decode()
		b, n := obs.ReadAllocs().DeltaSince(a0)
		if bestBytes < 0 || b < bestBytes {
			bestBytes = b
		}
		if bestObjs < 0 || n < bestObjs {
			bestObjs = n
		}
	}
	runtime.KeepAlive(out)
	if !reflect.DeepEqual(out.Rows, want) {
		t.Fatal("decoded rows differ from Engine.Strings")
	}
	t.Logf("%d rows, %d cells, %d cell bytes: decode allocated %d B (budget %d) in %d objects", len(want), cells, cellBytes, bestBytes, budget, bestObjs)
	if bestBytes > budget {
		t.Fatalf("decode allocated %d B, budget %d B", bestBytes, budget)
	}
	if limit := int64(len(want) + 16); bestObjs > limit {
		t.Fatalf("decode made %d allocations, limit %d (rows + 16)", bestObjs, limit)
	}
}

// TestClientDecodeConcurrent decodes different bodies from several
// goroutines at once: each decode takes its own pooled scratch, and no
// returned row aliases another decode's.
func TestClientDecodeConcurrent(t *testing.T) {
	e := equivEngine(t, 2)
	registerHalf(t, e)
	type job struct {
		body []byte
		want [][]string
	}
	var jobs []job
	for _, q := range rowsJSONQueries() {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		_, body := decodeQueryResponse(t, e, &QueryResponse{Vars: res.Vars}, res)
		jobs = append(jobs, job{body, e.Strings(res)})
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := jobs[(w*7+i)%len(jobs)]
				var out QueryResponse
				if fast, err := unmarshalQueryResponse(j.body, &out); err != nil || !fast {
					t.Errorf("fast %v, err %v", fast, err)
					return
				}
				if !reflect.DeepEqual(out.Rows, j.want) {
					t.Errorf("worker %d: rows differ from Engine.Strings", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestClientDecodePlain8 holds the eight-byte test to its definition:
// any one byte in any lane decides it.
func TestClientDecodePlain8(t *testing.T) {
	for c := 0; c < 256; c++ {
		for lane := 0; lane < 8; lane++ {
			w := []byte("abcdefgh")
			w[lane] = byte(c)
			want := c >= 0x20 && c < 0x80 && c != '"' && c != '\\'
			if got := plain8(binary.LittleEndian.Uint64(w)); got != want {
				t.Fatalf("byte %#x in lane %d: plain8 %v, want %v", c, lane, got, want)
			}
		}
	}
}
