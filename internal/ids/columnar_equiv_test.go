package ids

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"ids/internal/conformance/ref"
	"ids/internal/dict"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/sparql"
)

// Engine/reference equivalence: for every query the engine can parse,
// plan and execute, its answer must be one the reference evaluator
// (internal/conformance/ref, which shares none of the engine's code
// behind the parser) admits — the same rows, in ORDER BY order up to
// ties (ref.Result.Diff).

// equivGraph is a multi-shard graph rich enough to drive every
// operator: typed entities, literal attributes, sparse optional edges,
// and two disjoint predicate families for UNION branches.
func equivGraph(shards int) *kg.Graph {
	g := kg.New(shards)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	for i := 0; i < 40; i++ {
		s := iri(fmt.Sprintf("http://x/e%d", i))
		g.Add(s, iri("http://x/tag"), lit(fmt.Sprintf("tag%d", i%5)))
		g.Add(s, iri("http://x/score"), lit(strconv.Itoa(i*3%97)))
		if i%2 == 0 {
			g.Add(s, iri("http://x/desc"), lit(fmt.Sprintf("desc-%d", i)))
		}
		if i%3 == 0 {
			g.Add(s, iri("http://x/links"), iri(fmt.Sprintf("http://x/e%d", (i+7)%40)))
		}
		if i%4 == 0 {
			g.Add(s, iri("http://x/alt"), lit(fmt.Sprintf("tag%d", i%5)))
		}
	}
	// A few duplicate-shaped triples so DISTINCT has work to do.
	for i := 0; i < 10; i++ {
		g.Add(iri(fmt.Sprintf("http://x/e%d", i)), iri("http://x/tag"), lit("tag0"))
	}
	g.Seal()
	return g
}

// equivQueries is the committed equivalence corpus: one query per
// operator combination, including the recovery-equivalence set from
// durability_test.go.
var equivQueries = []string{
	// Recovery-equivalence set.
	`SELECT ?s ?o WHERE { ?s <http://x/tag> ?o . } ORDER BY ?s ?o`,
	`SELECT ?s ?d WHERE { ?s <http://x/desc> ?d . } ORDER BY ?d`,
	`SELECT ?s WHERE { ?s <http://x/tag> "tag1" . ?s <http://x/desc> ?d . } ORDER BY ?s`,
	// Scans: wildcard, bound subject, bound object, repeated variable.
	`SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`,
	`SELECT ?p ?o WHERE { <http://x/e4> ?p ?o . }`,
	`SELECT ?s WHERE { ?s <http://x/tag> "tag3" . }`,
	`SELECT ?s WHERE { ?s <http://x/links> ?s . }`,
	// Join chains and cross products.
	`SELECT ?a ?b WHERE { ?a <http://x/links> ?b . ?b <http://x/links> ?c . }`,
	`SELECT ?a ?t WHERE { ?a <http://x/links> ?b . ?b <http://x/tag> ?t . ?a <http://x/desc> ?d . }`,
	`SELECT ?a ?b WHERE { ?a <http://x/desc> ?x . ?b <http://x/alt> ?y . } LIMIT 400`,
	// FILTER arithmetic and comparisons.
	`SELECT ?s WHERE { ?s <http://x/score> ?v . FILTER(?v >= 40 && ?v < 70) }`,
	`SELECT ?s ?v WHERE { ?s <http://x/score> ?v . FILTER(?v * 2 > 100 || ?v = 3) }`,
	// OPTIONAL null extension, with and without downstream use.
	`SELECT ?s ?d WHERE { ?s <http://x/tag> ?t . OPTIONAL { ?s <http://x/desc> ?d . } }`,
	`SELECT ?s ?d ?l WHERE { ?s <http://x/score> ?v . OPTIONAL { ?s <http://x/desc> ?d . } OPTIONAL { ?s <http://x/links> ?l . } }`,
	// UNION over disjoint and overlapping branches.
	`SELECT ?s ?t WHERE { { ?s <http://x/tag> ?t . } UNION { ?s <http://x/alt> ?t . } }`,
	`SELECT ?s WHERE { { ?s <http://x/desc> ?d . } UNION { ?s <http://x/desc> ?d . } }`,
	// DISTINCT, ORDER BY, OFFSET/LIMIT.
	`SELECT DISTINCT ?t WHERE { ?s <http://x/tag> ?t . } ORDER BY ?t`,
	`SELECT DISTINCT ?s WHERE { ?s <http://x/tag> "tag0" . } ORDER BY ?s LIMIT 5 OFFSET 2`,
	// Aggregates.
	`SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://x/desc> ?d . }`,
	`SELECT ?t (COUNT(?s) AS ?n) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s <http://x/tag> ?t . ?s <http://x/score> ?v . } GROUP BY ?t ORDER BY ?t`,
	`SELECT ?t (AVG(?v) AS ?m) WHERE { ?s <http://x/tag> ?t . ?s <http://x/score> ?v . FILTER(?v > 10) } GROUP BY ?t ORDER BY ?t`,
	// BIND computed columns (post-gather).
	`SELECT ?s ?v2 WHERE { ?s <http://x/score> ?v . BIND(?v * 2 AS ?v2) } ORDER BY ?s`,
	`SELECT ?s ?d WHERE { ?s <http://x/score> ?v . BIND(?v - 50 AS ?d) FILTER(?d > 0) }`,
	`SELECT ?t ?flag WHERE { ?s <http://x/tag> ?t . BIND(?t = "tag1" AS ?flag) } LIMIT 300`,
	`SELECT ?b (COUNT(?s) AS ?n) WHERE { ?s <http://x/score> ?v . BIND(?v > 50 AS ?b) } GROUP BY ?b`,
	`SELECT ?s ?sum WHERE { ?s <http://x/score> ?v . OPTIONAL { ?s <http://x/desc> ?d . } BIND(?v + 1 AS ?sum) } ORDER BY ?sum LIMIT 20`,
	// VALUES inline data: seed, join on shared vars, UNDEF, unknown
	// terms, trailing form.
	`SELECT ?s ?v WHERE { VALUES ?s { <http://x/e1> <http://x/e2> <http://x/e3> } ?s <http://x/score> ?v . }`,
	`SELECT ?s ?t WHERE { ?s <http://x/tag> ?t . VALUES ?t { "tag0" "tag2" } }`,
	`SELECT ?s ?t ?v WHERE { VALUES (?s ?t) { (<http://x/e1> "tag1") (<http://x/e2> "tag2") } ?s <http://x/tag> ?t . ?s <http://x/score> ?v . }`,
	`SELECT ?s WHERE { ?s <http://x/tag> "tag1" . } VALUES ?s { <http://x/e1> <http://x/e6> <http://x/nosuch> }`,
	`SELECT ?s ?v ?w WHERE { VALUES (?s ?w) { (<http://x/e1> "x") (UNDEF "y") } ?s <http://x/score> ?v . }`,
	// BIND and VALUES composed.
	`SELECT ?s ?v2 WHERE { VALUES ?s { <http://x/e1> <http://x/e5> } ?s <http://x/score> ?v . BIND(?v * 10 AS ?v2) } ORDER BY ?v2`,
}

// runEquiv executes q on the engine and checks the answer against the
// reference evaluator's. What the engine rejects, the reference is not
// asked about.
func runEquiv(t *testing.T, e *Engine, w *ref.World, q string) {
	t.Helper()
	parsed, err := sparql.Parse(q)
	if err != nil {
		return
	}
	res, err := e.Query(q)
	if err != nil {
		return
	}
	want, err := w.Eval(parsed)
	if err != nil {
		t.Fatalf("the engine answered %q, the reference rejects it: %v", q, err)
	}
	if diff := want.Diff(res.Vars, e.Strings(res)); diff != "" {
		t.Fatalf("%q: %s", q, diff)
	}
}

// equivEngine builds an engine over the equivalence graph.
func equivEngine(t *testing.T, ranks int) *Engine {
	t.Helper()
	e, err := NewEngine(equivGraph(ranks), mpp.Topology{Nodes: 1, RanksPerNode: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// refWorld is the reference evaluator's view of an engine: its decoded
// triples, its UDF registry, its vector stores.
func refWorld(e *Engine) *ref.World {
	w := &ref.World{UDFs: e.Reg, Vectors: e.vectors}
	e.Graph.Triples(func(s, p, o dict.Term) bool {
		w.Triples = append(w.Triples, ref.Triple{S: s, P: p, O: o})
		return true
	})
	return w
}

// TestEquivCorpus sweeps the committed query corpus over 1-, 2- and
// 4-rank worlds.
func TestEquivCorpus(t *testing.T) {
	for _, ranks := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			e := equivEngine(t, ranks)
			w := refWorld(e)
			for _, q := range equivQueries {
				if _, err := e.Query(q); err != nil {
					t.Fatalf("%q: %v", q, err)
				}
				runEquiv(t, e, w, q)
			}
		})
	}
}

// TestEquivFuzzCorpus replays the committed SPARQL fuzz corpus: every
// input the parser accepts and the engine executes must get the
// reference's answer.
func TestEquivFuzzCorpus(t *testing.T) {
	dir := filepath.Join("..", "sparql", "testdata", "fuzz", "FuzzSPARQLParse")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Skipf("no fuzz corpus: %v", err)
	}
	e := equivEngine(t, 2)
	w := refWorld(e)
	tried := 0
	for _, ent := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		q, ok := decodeFuzzString(string(raw))
		if !ok {
			continue
		}
		if _, err := sparql.Parse(q); err != nil {
			continue // corpus is mostly parser-rejection inputs
		}
		tried++
		runEquiv(t, e, w, q)
	}
	t.Logf("fuzz corpus: %d parseable inputs checked against the reference", tried)
}

// decodeFuzzString extracts the string argument from a `go test fuzz
// v1` corpus file.
func decodeFuzzString(s string) (string, bool) {
	lines := strings.Split(s, "\n")
	for _, l := range lines {
		l = strings.TrimSpace(l)
		if strings.HasPrefix(l, "string(") && strings.HasSuffix(l, ")") {
			q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(l, "string("), ")"))
			if err != nil {
				return "", false
			}
			return q, true
		}
	}
	return "", false
}

// TestTraceLedgerInvariant pins the two-ledger invariant explicitly: a
// traced query reports strictly positive operator-accounted allocation
// that never exceeds the physical runtime/metrics delta, even with warm
// (recycled) arenas.
func TestTraceLedgerInvariant(t *testing.T) {
	colE := equivEngine(t, 2)
	q := `SELECT ?s ?t WHERE { ?s <http://x/tag> ?t . ?s <http://x/score> ?v . FILTER(?v > 10) } ORDER BY ?s LIMIT 10`
	for warm := 0; warm < 3; warm++ { // repeat: later runs hit recycled arenas
		res, err := colE.QueryTraced(q)
		if err != nil {
			t.Fatal(err)
		}
		ru := res.Trace.Resources
		if ru == nil {
			t.Fatal("missing resource attribution")
		}
		if ru.OpAllocBytes <= 0 || ru.OpMallocs <= 0 {
			t.Fatalf("run %d: op-accounted = %d bytes / %d mallocs, want > 0", warm, ru.OpAllocBytes, ru.OpMallocs)
		}
		if ru.OpAllocBytes > ru.AllocBytes {
			t.Fatalf("run %d: op-accounted bytes %d exceed physical delta %d", warm, ru.OpAllocBytes, ru.AllocBytes)
		}
		if ru.OpMallocs > ru.Mallocs {
			t.Fatalf("run %d: op-accounted mallocs %d exceed physical delta %d", warm, ru.OpMallocs, ru.Mallocs)
		}
	}
}
