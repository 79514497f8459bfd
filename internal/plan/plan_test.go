package plan

import (
	"fmt"
	"strings"
	"testing"

	"ids/internal/dict"
	"ids/internal/kg"
	"ids/internal/sparql"
)

func testGraph() *kg.Graph {
	g := kg.New(2)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	// 100 "common" triples, 2 "rare" ones.
	for i := 0; i < 100; i++ {
		g.Add(iri(fmt.Sprintf("http://x/s%d", i)), iri("http://x/common"), lit("v"))
	}
	g.Add(iri("http://x/s0"), iri("http://x/rare"), lit("r"))
	g.Add(iri("http://x/s1"), iri("http://x/rare"), lit("r"))
	g.Seal()
	return g
}

func mustQuery(t *testing.T, s string) *sparql.Query {
	t.Helper()
	q, err := sparql.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBuildOrdersBySelectivity(t *testing.T) {
	g := testGraph()
	q := mustQuery(t, `SELECT ?s WHERE {
		?s <http://x/common> ?v .
		?s <http://x/rare> ?r .
	}`)
	p, err := Build(q, StatsFromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	scan, ok := p.Steps[0].(ScanStep)
	if !ok {
		t.Fatalf("step 0 = %T", p.Steps[0])
	}
	if scan.Pattern.P.Term.Value != "http://x/rare" {
		t.Fatalf("planner did not start with the rare predicate: %s", scan.Pattern)
	}
	if _, ok := p.Steps[1].(JoinStep); !ok {
		t.Fatalf("step 1 = %T", p.Steps[1])
	}
}

func TestBuildPlacesFilterEarly(t *testing.T) {
	g := testGraph()
	q := mustQuery(t, `SELECT ?s WHERE {
		?s <http://x/rare> ?r .
		?s <http://x/common> ?v .
		FILTER(?r = "r")
	}`)
	p, err := Build(q, StatsFromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	// The filter only needs ?r and ?s, both bound by the first scan,
	// so it must come before the join.
	if _, ok := p.Steps[1].(FilterStep); !ok {
		t.Fatalf("steps = %s", p.Explain())
	}
}

func TestBuildRejectsUnboundFilter(t *testing.T) {
	g := testGraph()
	q := mustQuery(t, `SELECT ?s WHERE {
		?s <http://x/rare> ?r .
		FILTER(?ghost > 1)
	}`)
	if _, err := Build(q, StatsFromGraph(g)); err == nil {
		t.Fatal("filter on unbound variable accepted")
	}
}

func TestBuildRejectsUnboundSelect(t *testing.T) {
	g := testGraph()
	q := mustQuery(t, `SELECT ?ghost WHERE { ?s <http://x/rare> ?r . }`)
	if _, err := Build(q, StatsFromGraph(g)); err == nil {
		t.Fatal("unbound select accepted")
	}
}

func TestBuildRejectsUnboundOrderBy(t *testing.T) {
	g := testGraph()
	q := mustQuery(t, `SELECT ?s WHERE { ?s <http://x/rare> ?r . } ORDER BY ?ghost`)
	if _, err := Build(q, StatsFromGraph(g)); err == nil {
		t.Fatal("unbound order-by accepted")
	}
}

func TestBuildNoPatterns(t *testing.T) {
	g := testGraph()
	q := &sparql.Query{Limit: -1}
	if _, err := Build(q, StatsFromGraph(g)); err == nil {
		t.Fatal("empty WHERE accepted")
	}
}

func TestBuildDisconnectedPatterns(t *testing.T) {
	g := testGraph()
	q := mustQuery(t, `SELECT ?a ?b WHERE {
		?a <http://x/rare> ?r .
		?b <http://x/common> ?v .
	}`)
	p, err := Build(q, StatsFromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 2 {
		t.Fatalf("steps = %d", len(p.Steps))
	}
}

func TestBuildPrefersFilterEnablingPattern(t *testing.T) {
	// A UDF filter on ?v should pull the (large) pattern binding ?v
	// ahead of a smaller pattern that does not enable any filter, so
	// the pruning UDF runs on the bulk scan (the paper's SW-before-
	// join behaviour).
	g := kg.New(2)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	for i := 0; i < 500; i++ {
		s := iri(fmt.Sprintf("http://x/p%d", i))
		g.Add(s, iri("http://x/flag"), lit("y"))
		g.Add(s, iri("http://x/seq"), lit(fmt.Sprintf("SEQ%d", i)))
	}
	for i := 0; i < 10; i++ {
		g.Add(iri(fmt.Sprintf("http://x/c%d", i)), iri("http://x/links"), iri("http://x/p0"))
	}
	g.Seal()
	q := mustQuery(t, `SELECT ?c WHERE {
		?p <http://x/flag> "y" .
		?p <http://x/seq> ?v .
		?c <http://x/links> ?p .
		FILTER(sim(?v) >= 0.9)
	}`)
	p, err := Build(q, StatsFromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	// Essential property: the UDF filter must run before the ?c links
	// join, i.e. the pruning happens on the protein side, and the
	// filter-enabling seq pattern comes before both.
	seqAt, filterAt, linksAt := -1, -1, -1
	for i, s := range p.Steps {
		switch n := s.(type) {
		case ScanStep:
			if n.Pattern.P.Term.Value == "http://x/seq" {
				seqAt = i
			}
		case JoinStep:
			switch n.Pattern.P.Term.Value {
			case "http://x/seq":
				seqAt = i
			case "http://x/links":
				linksAt = i
			}
		case FilterStep:
			filterAt = i
		}
	}
	if !(seqAt < filterAt && filterAt < linksAt) {
		t.Fatalf("filter not pushed before the compound join (seq=%d filter=%d links=%d):\n%s",
			seqAt, filterAt, linksAt, p.Explain())
	}
}

func TestPatternCardEstimates(t *testing.T) {
	g := testGraph()
	st := StatsFromGraph(g)
	common := mustQuery(t, `SELECT ?s WHERE { ?s <http://x/common> ?v . }`).Where[0].(sparql.TriplePattern)
	rare := mustQuery(t, `SELECT ?s WHERE { ?s <http://x/rare> ?v . }`).Where[0].(sparql.TriplePattern)
	unknown := mustQuery(t, `SELECT ?s WHERE { ?s <http://x/never> ?v . }`).Where[0].(sparql.TriplePattern)
	all := mustQuery(t, `SELECT ?s WHERE { ?s ?p ?o . }`).Where[0].(sparql.TriplePattern)
	if st.PatternCard(common) <= st.PatternCard(rare) {
		t.Fatal("common should estimate larger than rare")
	}
	if st.PatternCard(unknown) != 0 {
		t.Fatal("unknown predicate should estimate 0")
	}
	if st.PatternCard(all) != g.Len() {
		t.Fatalf("wildcard card = %d, want %d", st.PatternCard(all), g.Len())
	}
}

func TestExplainRendering(t *testing.T) {
	g := testGraph()
	q := mustQuery(t, `SELECT DISTINCT ?s WHERE {
		?s <http://x/rare> ?r .
		FILTER(?r = "r")
	} ORDER BY ?s LIMIT 5`)
	p, err := Build(q, StatsFromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	out := p.Explain()
	for _, want := range []string{"SCAN", "FILTER", "DISTINCT", "ORDER BY", "LIMIT 5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Explain missing %q:\n%s", want, out)
		}
	}
}

func TestBuildSimilarAccessPath(t *testing.T) {
	g := testGraph()
	st := StatsFromGraph(g)
	st.Vectors = map[string]int{"fp": 1000}
	// SIMILAR (K=5) is the cheapest access path; the common pattern
	// joins against its bound variable.
	q := mustQuery(t, `SELECT ?s ?v WHERE {
		?s <http://x/common> ?v .
		SIMILAR(?s, "anchor", 5, "fp")
	}`)
	p, err := Build(q, st)
	if err != nil {
		t.Fatal(err)
	}
	sim, ok := p.Steps[0].(SimilarStep)
	if !ok {
		t.Fatalf("step 0 = %T, want SimilarStep", p.Steps[0])
	}
	if sim.Semi || sim.Est != 5 || sim.Sim.Store != "fp" {
		t.Fatalf("access step = %+v", sim)
	}
	if _, ok := p.Steps[1].(JoinStep); !ok {
		t.Fatalf("step 1 = %T, want JoinStep", p.Steps[1])
	}
	if !strings.Contains(p.Explain(), "KNN SIMILAR(?s") {
		t.Fatalf("Explain missing KNN line:\n%s", p.Explain())
	}
}

func TestBuildSimilarSemiJoin(t *testing.T) {
	g := testGraph()
	st := StatsFromGraph(g)
	st.Vectors = map[string]int{"fp": 10}
	// Huge K makes the access path expensive, so the planner scans the
	// rare pattern first and applies SIMILAR as a semi-join filter.
	q := mustQuery(t, `SELECT ?s WHERE {
		?s <http://x/rare> ?r .
		SIMILAR(?s, [1 2 3], 500, "fp")
	}`)
	p, err := Build(q, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Steps[0].(ScanStep); !ok {
		t.Fatalf("step 0 = %T, want ScanStep", p.Steps[0])
	}
	sim, ok := p.Steps[1].(SimilarStep)
	if !ok {
		t.Fatalf("step 1 = %T, want SimilarStep", p.Steps[1])
	}
	if !sim.Semi {
		t.Fatalf("expected semi mode: %+v", sim)
	}
	if !strings.Contains(p.Explain(), "KNN-SEMI") {
		t.Fatalf("Explain missing KNN-SEMI:\n%s", p.Explain())
	}
}

func TestBuildSimilarOnly(t *testing.T) {
	g := testGraph()
	q := mustQuery(t, `SELECT ?x WHERE { SIMILAR(?x, [1 2], 3) }`)
	p, err := Build(q, StatsFromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Steps) != 1 {
		t.Fatalf("steps = %v", p.Steps)
	}
	sim := p.Steps[0].(SimilarStep)
	if sim.Semi || sim.OutEst != 3 {
		t.Fatalf("step = %+v", sim)
	}
}

func TestVecCount(t *testing.T) {
	st := &Stats{Vectors: map[string]int{"a": 7}}
	if st.VecCount("a") != 7 || st.VecCount("") != 7 || st.VecCount("b") != 0 {
		t.Fatal("VecCount single-store resolution")
	}
	st.Vectors["b"] = 3
	if st.VecCount("") != 0 {
		t.Fatal("ambiguous empty name must return 0")
	}
}
