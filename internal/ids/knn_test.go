package ids

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"ids/internal/dict"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/vecstore"
	"ids/internal/vecstore/hnsw"
)

// knnEngine builds a 2-rank engine over ten compounds c0..c9 laid out
// on a line in vector space (so nearest neighbours are unambiguous),
// with an HNSW-indexed store attached under "fp". Keys are the
// compound IRIs plus one literal-keyed extra.
func knnEngine(t *testing.T) *Engine { return knnEngineAt(t, 2) }

// knnEngineAt is knnEngine over the given number of ranks. Besides
// names, each compound has a weight class and a link to the next one;
// two keys join nothing as a subject: "orphan" has no graph term at
// all, <http://x/target> appears only as an object.
func knnEngineAt(t *testing.T, ranks int) *Engine {
	t.Helper()
	g := kg.New(ranks)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	for i := 0; i < 10; i++ {
		c := fmt.Sprintf("http://x/c%d", i)
		g.Add(iri(c), iri("http://x/name"), lit(fmt.Sprintf("c%d", i)))
		g.Add(iri(c), iri("http://x/weight"), lit(fmt.Sprintf("w%d", i%3)))
		g.Add(iri(c), iri("http://x/next"), iri(fmt.Sprintf("http://x/c%d", (i+1)%10)))
		if i < 2 {
			g.Add(iri(c), iri("http://x/rare"), lit("r"))
		}
	}
	g.Add(iri("http://x/c5"), iri("http://x/binds"), iri("http://x/target"))
	g.Seal()
	e, err := NewEngine(g, mpp.Topology{Nodes: 1, RanksPerNode: ranks})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := vecstore.New(2, vecstore.L2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := vs.Add(fmt.Sprintf("http://x/c%d", i), []float32{float32(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	// A key with no graph term: must be silently dropped from joins.
	if err := vs.Add("orphan", []float32{0.1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := vs.Add("http://x/target", []float32{5.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := vs.EnableHNSW(hnsw.Config{M: 4, EfConstruction: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.AttachVectors("fp", vs); err != nil {
		t.Fatal(err)
	}
	return e
}

func sortedStrings(e *Engine, res *Result) []string {
	rows := e.Strings(res)
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "|")
	}
	sort.Strings(out)
	return out
}

func TestSimilarHybridQuery(t *testing.T) {
	e := knnEngine(t)
	res, err := e.Query(`SELECT ?c ?n WHERE {
		SIMILAR(?c, [0 0], 3, "fp") .
		?c <http://x/name> ?n .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedStrings(e, res)
	// Top-3 of [0 0] are c0, c1, c2 plus "orphan" — which has no
	// graph term and is dropped, leaving c0 and c1 (k=3 includes
	// orphan). Distances: c0=0, orphan=0.1, c1=1.
	want := []string{
		`<http://x/c0>|"c0"`,
		`<http://x/c1>|"c1"`,
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("rows = %v", got)
	}
}

func TestSimilarKeyAnchor(t *testing.T) {
	e := knnEngine(t)
	// Anchor by stored key (IRI form): nearest to c9 are c9, c8, c7.
	res, err := e.Query(`SELECT ?n WHERE {
		SIMILAR(?c, <http://x/c9>, 3, "fp") .
		?c <http://x/name> ?n .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedStrings(e, res)
	want := []string{`"c7"`, `"c8"`, `"c9"`}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v", got)
	}
}

func TestSimilarSemiJoin(t *testing.T) {
	e := knnEngine(t)
	// The rare pattern (2 rows) is cheaper than K=8 candidates, so
	// the planner scans first and applies SIMILAR as a semi-join.
	// Top-8 of [9 0] by distance from x=9 are c9(0) c8(1) .. c2(7),
	// so c0 and c1 are out; the rare rows are c0, c1 → empty result.
	qs := `SELECT ?c WHERE {
		?c <http://x/rare> "r" .
		SIMILAR(?c, [9 0], 8, "fp")
	}`
	res, err := e.QueryTraced(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", e.Strings(res))
	}
	if !strings.Contains(res.Plan.Explain(), "KNN-SEMI") {
		t.Fatalf("plan:\n%s", res.Plan.Explain())
	}
	// Anchored near c0 instead, both rare compounds survive.
	res, err = e.Query(`SELECT ?c WHERE {
		?c <http://x/rare> "r" .
		SIMILAR(?c, [0 0], 8, "fp")
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", e.Strings(res))
	}
}

func TestSimilarExplainAnalyze(t *testing.T) {
	e := knnEngine(t)
	res, err := e.QueryTraced(`SELECT ?n WHERE {
		SIMILAR(?c, [0 0], 3, "fp") .
		?c <http://x/name> ?n .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Plan.Explain(), "KNN SIMILAR(?c") {
		t.Fatalf("plan missing KNN access path:\n%s", res.Plan.Explain())
	}
	if res.Trace == nil {
		t.Fatal("no trace")
	}
	found := false
	for _, op := range res.Trace.Ops {
		if op.Op != "knn" {
			continue
		}
		found = true
		note := op.Note
		if !strings.Contains(note, "index=hnsw") || !strings.Contains(note, "visited=") ||
			!strings.Contains(note, "ef=") || !strings.Contains(note, "mode=access") {
			t.Fatalf("knn op note = %q", note)
		}
	}
	if !found {
		t.Fatalf("no knn op in trace: %+v", res.Trace.Ops)
	}
}

// TestEquivSimilar checks SIMILAR access paths, semi-joins and the
// patterns they drive against the reference evaluator, which turns the
// same SearchHNSW hit list into bindings by its own rules, at 1-4
// ranks: access mode places each hit on the rank owning it as a
// subject, which differs with the rank count. probes is how many
// operators join through the owner's index (a "probe" note) — so the
// answers cannot come from the hash join the probe replaces.
func TestEquivSimilar(t *testing.T) {
	cases := []struct {
		q      string
		probes int
	}{
		{`SELECT ?c ?n WHERE { SIMILAR(?c, [4 0], 5, "fp") . ?c <http://x/name> ?n . } ORDER BY ?n`, 1},
		{`SELECT ?c WHERE { ?c <http://x/rare> "r" . SIMILAR(?c, [0 0], 4, "fp") }`, 0},
		{`SELECT ?c WHERE { SIMILAR(?c, "orphan", 4, "fp") }`, 0},
		{`SELECT ?c WHERE { SIMILAR(?c, [0 0], 3) }`, 0},
		// Two chained probes: the placement survives the first.
		{`SELECT ?c ?n ?w WHERE { SIMILAR(?c, [4 0], 6, "fp") . ?c <http://x/name> ?n . ?c <http://x/weight> ?w . }`, 2},
		// A constant object and a predicate variable.
		{`SELECT ?c ?p WHERE { SIMILAR(?c, [4.2 0], 2, "fp") . ?c ?p "w1" . }`, 1},
		// The "orphan" hit has no graph term; <http://x/target> is only
		// ever an object.
		{`SELECT ?c ?n WHERE { SIMILAR(?c, [0 0], 3, "fp") . ?c <http://x/name> ?n . }`, 1},
		{`SELECT ?c ?p ?o WHERE { SIMILAR(?c, [5.5 0.5], 3, "fp") . ?c ?p ?o . }`, 1},
		// The second pattern's subject is not the placed variable, and
		// the third shares ?n with the stream: both hash-join.
		{`SELECT ?c ?d ?m WHERE { SIMILAR(?c, [2 0], 4, "fp") . ?c <http://x/next> ?d . ?d <http://x/name> ?m . }`, 1},
		{`SELECT ?c ?n WHERE { SIMILAR(?c, [2 0], 4, "fp") . ?c <http://x/next> ?n . ?c <http://x/name> ?n . }`, 1},
		// SIMILAR seeding an OPTIONAL body and a UNION branch.
		{`SELECT ?c ?r ?w WHERE { ?c <http://x/rare> ?r . OPTIONAL { SIMILAR(?c, [1 0], 3, "fp") . ?c <http://x/weight> ?w . } }`, 1},
		{`SELECT ?c ?v WHERE { { SIMILAR(?c, [2 0], 3, "fp") . ?c <http://x/name> ?v . } UNION { ?c <http://x/rare> ?v . } }`, 1},
		// A FILTER clears the placement: the join after it hashes.
		{`SELECT ?c ?n WHERE { SIMILAR(?c, [4 0], 5, "fp") . ?c <http://x/weight> ?w . FILTER(?w != "w1") ?c <http://x/name> ?n . }`, 1},
		// SIMILAR over a non-empty stream is a cross product, not a seed.
		{`SELECT ?c ?x WHERE { ?x <http://x/rare> "r" . SIMILAR(?c, [4 0], 3, "fp") . ?c <http://x/name> ?n . }`, 0},
	}
	for ranks := 1; ranks <= 4; ranks++ {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			e := knnEngineAt(t, ranks)
			w := refWorld(e)
			for _, tc := range cases {
				res, err := e.QueryTraced(tc.q)
				if err != nil {
					t.Fatalf("%q: %v", tc.q, err)
				}
				probes := 0
				for _, op := range res.Trace.Ops {
					if strings.HasPrefix(op.Note, "probe ") {
						probes++
					}
				}
				if probes != tc.probes {
					t.Fatalf("%q: %d probe joins, want %d\n%s", tc.q, probes, tc.probes, res.Plan.Explain())
				}
				runEquiv(t, e, w, tc.q)
			}
		})
	}
}

func TestSimilarErrors(t *testing.T) {
	e := knnEngine(t)
	if _, err := e.Query(`SELECT ?c WHERE { SIMILAR(?c, [0 0], 3, "nope") }`); err == nil {
		t.Fatal("unknown store accepted")
	}
	if _, err := e.Query(`SELECT ?c WHERE { SIMILAR(?c, "ghost", 3, "fp") }`); err == nil {
		t.Fatal("unknown anchor key accepted")
	}
	if _, err := e.Query(`SELECT ?c WHERE { SIMILAR(?c, [0 0 0], 3, "fp") }`); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// Default store resolution: exactly one store attached → no name needed.
	if _, err := e.Query(`SELECT ?c WHERE { SIMILAR(?c, [0 0], 3) }`); err != nil {
		t.Fatalf("single-store default failed: %v", err)
	}
}

func TestSimilarMetrics(t *testing.T) {
	e := knnEngine(t)
	if _, err := e.Query(`SELECT ?c WHERE { SIMILAR(?c, [0 0], 3, "fp") }`); err != nil {
		t.Fatal(err)
	}
	if v := e.met.vecVisited.Value(); v <= 0 {
		t.Fatalf("ids_vector_visited_nodes_total = %v", v)
	}
}
