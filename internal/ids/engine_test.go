package ids

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"ids/internal/dict"
	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/kg"
	"ids/internal/mpp"
)

func peopleGraph(shards int) *kg.Graph {
	g := kg.New(shards)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	people := []struct {
		name string
		age  string
	}{
		{"ada", "36"}, {"grace", "45"}, {"alan", "41"}, {"edsger", "72"}, {"barbara", "29"},
	}
	for _, p := range people {
		s := iri("http://x/" + p.name)
		g.Add(s, iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), iri("http://x/Person"))
		g.Add(s, iri("http://x/name"), lit(p.name))
		g.Add(s, iri("http://x/age"), lit(p.age))
	}
	g.Add(iri("http://x/ada"), iri("http://x/knows"), iri("http://x/grace"))
	g.Add(iri("http://x/grace"), iri("http://x/knows"), iri("http://x/alan"))
	g.Seal()
	return g
}

func newEngine(t *testing.T, ranks int) *Engine {
	t.Helper()
	g := peopleGraph(ranks)
	e, err := NewEngine(g, mpp.Topology{Nodes: 1, RanksPerNode: ranks})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	g := peopleGraph(4)
	if _, err := NewEngine(g, mpp.Topology{Nodes: 1, RanksPerNode: 2}); err == nil {
		t.Fatal("shard/rank mismatch accepted")
	}
	if _, err := NewEngine(g, mpp.Topology{}); err == nil {
		t.Fatal("invalid topology accepted")
	}
}

func TestSimpleSelect(t *testing.T) {
	e := newEngine(t, 4)
	res, err := e.Query(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	rows := e.Strings(res)
	if rows[0][1] != `"ada"` {
		t.Fatalf("first row = %v", rows[0])
	}
	if res.Report == nil || res.Report.Makespan < 0 {
		t.Fatal("missing report")
	}
}

func TestJoinQuery(t *testing.T) {
	e := newEngine(t, 4)
	res, err := e.Query(`
		SELECT ?a ?b WHERE {
			?a <http://x/knows> ?b .
			?b <http://x/knows> ?c .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	// Only ada knows grace who knows alan.
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	got := e.Strings(res)[0]
	if !strings.Contains(got[0], "ada") || !strings.Contains(got[1], "grace") {
		t.Fatalf("row = %v", got)
	}
}

func TestFilterComparison(t *testing.T) {
	e := newEngine(t, 4)
	res, err := e.Query(`
		SELECT ?s WHERE {
			?s <http://x/age> ?a .
			FILTER(?a >= 40 && ?a < 50)
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // grace 45, alan 41
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestDistinctAndLimit(t *testing.T) {
	e := newEngine(t, 2)
	res, err := e.Query(`SELECT DISTINCT ?p WHERE { ?s ?p ?o . } ORDER BY ?p LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestQueryWithUDF(t *testing.T) {
	e := newEngine(t, 4)
	err := e.Reg.Register("overForty", func(args []expr.Value) (expr.Value, error) {
		return expr.Bool(args[0].Num > 40), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`
		SELECT ?s WHERE {
			?s <http://x/age> ?a .
			FILTER(overForty(?a))
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // grace, alan, edsger
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	// Profiling persisted across ranks' profilers.
	merged := e.MergedProfile()
	if merged.Get("overForty").Execs != 5 {
		t.Fatalf("profile execs = %d, want 5", merged.Get("overForty").Execs)
	}
}

func TestDynamicModuleQuery(t *testing.T) {
	e := newEngine(t, 2)
	src := `
		def adult(age) {
			return age >= 18
		}`
	if err := e.LoadModule("people", src); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`
		SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(people.adult(?a)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Reload with stricter logic.
	if err := e.ReloadModule("people", `
		def adult(age) {
			return age >= 40
		}`); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(`
		SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(people.adult(?a)) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows after reload = %d, want 3", len(res.Rows))
	}
}

func TestWhatIsMilliseconds(t *testing.T) {
	e := newEngine(t, 4)
	res, err := e.WhatIs("http://x/ada")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // type, name, age, knows
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	// Paper §1: a simple what-is query returns in milliseconds.
	if res.Report.Makespan > 0.05 {
		t.Fatalf("what-is took %fs simulated, want milliseconds", res.Report.Makespan)
	}
}

func TestQueryParseAndPlanErrors(t *testing.T) {
	e := newEngine(t, 2)
	if _, err := e.Query(`SELECT`); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := e.Query(`SELECT ?ghost WHERE { ?s <http://x/name> ?n . }`); err == nil {
		t.Fatal("plan error not surfaced")
	}
}

func TestOptionsAffectExecution(t *testing.T) {
	// Disabled optimizations must still produce identical results.
	e := newEngine(t, 4)
	e.Opts = Options{Reorder: false, Rebalance: exec.RebalanceNone}
	res1, err := e.Query(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a > 30) } ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	e.Opts = DefaultOptions()
	res2, err := e.Query(`SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a > 30) } ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res1.Rows) != len(res2.Rows) {
		t.Fatalf("optimization changed results: %d vs %d", len(res1.Rows), len(res2.Rows))
	}
}

func TestQueryStageErrorIsAQueryError(t *testing.T) {
	e := newEngine(t, 4)
	before, err := e.Query(peopleQuery)
	if err != nil {
		t.Fatal(err)
	}
	errStage := errors.New("stage failed")
	_, err = e.QueryStage(context.Background(), peopleQuery, func(r *mpp.Rank, tab *exec.Table) error {
		if r.ID() == 1 {
			return errStage
		}
		// The other ranks park on a barrier the failing rank never
		// reaches; the world's abort must release them.
		return r.Barrier()
	})
	if !errors.Is(err, errStage) {
		t.Fatalf("QueryStage err = %v, want %v", err, errStage)
	}
	if v := e.Metrics().Counter("ids_query_errors_total").Value(); v != 1 {
		t.Fatalf("ids_query_errors_total = %v, want 1", v)
	}
	// The failed world's arenas went back to the pool; the next query
	// reuses them and must answer as before.
	after, err := e.Query(peopleQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Strings(after), e.Strings(before); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a failed stage: %v, want %v", got, want)
	}
}
