package ids

import (
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"ids/internal/expr"
	"ids/internal/obs"
)

// opNamed returns the trace's operators of one kind.
func opNamed(tr *obs.QueryTrace, name string) []obs.OpTrace {
	var out []obs.OpTrace
	for _, op := range tr.Ops {
		if op.Op == name {
			out = append(out, op)
		}
	}
	return out
}

// TestFinalizeExplainAnalyze: the operators after the gather run on the
// root alone, and EXPLAIN ANALYZE still lists them — with the row
// counts of the query, not p copies of them.
func TestFinalizeExplainAnalyze(t *testing.T) {
	e := equivEngine(t, 4)
	one := func(tr *obs.QueryTrace, name string) obs.OpTrace {
		t.Helper()
		ops := opNamed(tr, name)
		if len(ops) != 1 {
			t.Fatalf("trace has %d %q operators, want 1: %+v", len(ops), name, tr.Ops)
		}
		return ops[0]
	}

	// Aggregate: every tag triple gathered, 5 groups out.
	all, err := e.Query(`SELECT ?s ?t WHERE { ?s <http://x/tag> ?t . }`)
	if err != nil {
		t.Fatal(err)
	}
	n := len(all.Rows)
	res, err := e.QueryTraced(`SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s <http://x/tag> ?t . } GROUP BY ?t ORDER BY ?t`)
	if err != nil {
		t.Fatal(err)
	}
	g, agg := one(res.Trace, "gather"), one(res.Trace, "aggregate")
	if n < 40 || g.RowsIn != n || g.RowsOut != n {
		t.Fatalf("gather rows in/out = %d/%d, want %d/%d", g.RowsIn, g.RowsOut, n, n)
	}
	if len(g.Ranks) != 4 {
		t.Fatalf("gather reports %d ranks, want all 4", len(g.Ranks))
	}
	if agg.RowsIn != n || agg.RowsOut != len(res.Rows) || agg.RowsOut != 5 {
		t.Fatalf("aggregate rows in/out = %d/%d, want %d/5", agg.RowsIn, agg.RowsOut, n)
	}
	if len(agg.Ranks) != 1 || agg.Ranks[0].Rank != 0 {
		t.Fatalf("aggregate ran on %+v, want the root alone", agg.Ranks)
	}
	var sb strings.Builder
	res.Trace.Render(&sb, true)
	for _, want := range []string{"gather", "aggregate"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("EXPLAIN ANALYZE lost %q:\n%s", want, sb.String())
		}
	}

	// BIND with a dependent post-filter: 40 scores in, 40 bound, the
	// survivors out.
	res, err = e.QueryTraced(`SELECT ?s ?d WHERE { ?s <http://x/score> ?v . BIND(?v - 50 AS ?d) FILTER(?d > 0) }`)
	if err != nil {
		t.Fatal(err)
	}
	g, b := one(res.Trace, "gather"), one(res.Trace, "bind")
	if g.RowsOut != 40 || b.RowsIn != 40 || b.RowsOut != 40 {
		t.Fatalf("gather out %d, bind in/out %d/%d, want 40 throughout", g.RowsOut, b.RowsIn, b.RowsOut)
	}
	var post obs.OpTrace
	for _, f := range opNamed(res.Trace, "filter") {
		if f.Note == "post-bind" {
			post = f
		}
	}
	if post.RowsIn != 40 || post.RowsOut != len(res.Rows) {
		t.Fatalf("post-bind filter rows in/out = %d/%d, want 40/%d", post.RowsIn, post.RowsOut, len(res.Rows))
	}
	if b.AllocBytes <= 0 || len(b.Ranks) != 1 {
		t.Fatalf("bind attribution = %d B over %d ranks, want one rank's worth", b.AllocBytes, len(b.Ranks))
	}
}

// TestFinalizeRunsOnce counts BIND evaluations: one per solution, on
// one rank, however many ranks gathered — while the simulated clock
// still charges every call (TestEquivClockGolden pins the amounts).
func TestFinalizeRunsOnce(t *testing.T) {
	e := equivEngine(t, 4)
	var calls atomic.Int64
	err := e.Reg.RegisterWithCost("x.tick",
		func(args []expr.Value) (expr.Value, error) {
			calls.Add(1)
			return args[0], nil
		},
		func([]expr.Value) float64 { return 0.25 })
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`SELECT ?s ?w WHERE { ?s <http://x/score> ?v . BIND(x.tick(?v) AS ?w) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 || calls.Load() != 40 {
		t.Fatalf("%d rows, %d BIND evaluations; want 40 and 40", len(res.Rows), calls.Load())
	}
	if res.Report.Makespan < 40*0.25 {
		t.Fatalf("makespan %g does not carry the 40 charged calls", res.Report.Makespan)
	}
}

// TestFinalizeDistinctIsOverProjectedRows: DISTINCT de-duplicates what
// SELECT projects, not the solutions behind it (48 distinct (?s ?t)
// solutions, 5 tags), before OFFSET/LIMIT counts rows; and it leaves the
// bag an aggregate folds alone (a UNION of one pattern with itself
// yields every subject twice, and COUNT must see both).
func TestFinalizeDistinctIsOverProjectedRows(t *testing.T) {
	for _, ranks := range []int{1, 4} {
		e := equivEngine(t, ranks)
		for _, tc := range []struct {
			query string
			want  [][]string
		}{
			{`SELECT DISTINCT ?t WHERE { ?s <http://x/tag> ?t . } ORDER BY ?t`,
				[][]string{{`"tag0"`}, {`"tag1"`}, {`"tag2"`}, {`"tag3"`}, {`"tag4"`}}},
			{`SELECT DISTINCT ?t WHERE { ?s <http://x/tag> ?t . ?s <http://x/score> ?v . } ORDER BY DESC(?t) LIMIT 2 OFFSET 1`,
				[][]string{{`"tag3"`}, {`"tag2"`}}},
			{`SELECT DISTINCT (COUNT(?s) AS ?n) WHERE { { ?s <http://x/desc> ?d . } UNION { ?s <http://x/desc> ?d . } }`,
				[][]string{{"40"}}},
		} {
			res, err := e.QueryTraced(tc.query)
			if err != nil {
				t.Fatalf("ranks=%d %q: %v", ranks, tc.query, err)
			}
			if got := e.Strings(res); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("ranks=%d %q:\n got  %v\n want %v", ranks, tc.query, got, tc.want)
			}
		}
	}
}
