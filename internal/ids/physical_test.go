package ids

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/sparql"
)

// TestUDFBindingRankConsistent: a module reload that lands while a
// query runs must not give one answer whose rows come from two versions
// of a UDF. The query binds its UDFs once, for all ranks, so every row
// is v1's. Deterministic without sleeps: at 2 ranks, with no reordering
// and no re-balancing, conjunct 0 holds rank 1's rows until conjunct 1
// has run on rank 0 — and its first call reloads mod.f to v2.
func TestUDFBindingRankConsistent(t *testing.T) {
	e := equivEngine(t, 2)
	e.Opts = Options{Reorder: false, Rebalance: exec.RebalanceNone}
	reloaded := make(chan struct{})
	if err := e.Reg.Register("x.gate", func(args []expr.Value) (expr.Value, error) {
		if id, ok := e.Graph.Dict.LookupIRI(args[0].Str); ok && e.Graph.ShardOf(id) == 1 {
			<-reloaded
		}
		return expr.Bool(true), nil
	}); err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	v1 := func(args []expr.Value) (expr.Value, error) {
		once.Do(func() {
			if err := e.ReloadModule("mod", `def f(x) { return x % 2 == 1 }`); err != nil {
				t.Error(err)
			}
			close(reloaded)
		})
		return expr.Bool(math.Mod(args[0].Num, 2) == 0), nil // v2 keeps the odd ones
	}
	if err := e.Reg.RegisterDynamic("mod", "f", v1, nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`SELECT ?s WHERE { ?s <http://x/score> ?v . FILTER(x.gate(?s) && mod.f(?v)) } ORDER BY ?s`)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 40; i++ { // equivGraph: entity i scores i*3%97
		if i*3%97%2 == 0 {
			want = append(want, fmt.Sprintf("<http://x/e%d>", i))
		}
	}
	var got []string
	for _, row := range e.Strings(res) {
		got = append(got, row[0])
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("rows from more than one version of mod.f:\n got  %v\n want %v (v1's, from both ranks)", got, want)
	}
}

// TestUntracedQueryAllocCeiling caps the heap objects of a warm,
// untraced multi-rank query: a 3-pattern join and a 2-conjunct UDF
// FILTER at 4 ranks. The FILTER is compiled once per query, not once
// per rank, and operator labels are rendered only for a trace.
func TestUntracedQueryAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc ceilings are a bench-mode gate")
	}
	e := equivEngine(t, 4)
	registerHalf(t, e)
	if err := e.Reg.MarkPure("x.half"); err != nil {
		t.Fatal(err)
	}
	q, err := sparql.Parse(`SELECT ?a ?t WHERE { ?a <http://x/links> ?b . ?b <http://x/score> ?v . ?a <http://x/tag> ?t . FILTER(x.half(?v) > 5 && x.half(?v) < 40) }`)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	// The race detector makes sync.Pool drop a quarter of what it is
	// given, and the memo key buffer is pooled.
	pool := sync.Pool{New: func() any { return new([]byte) }}
	if testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			pool.Put(pool.Get())
		}
	}) > 0 {
		t.Skip("sync.Pool drops buffers here (race detector)")
	}
	for i := 0; i < 3; i++ {
		run() // warm the arenas, the memo and the resolver
	}
	const ceiling = 476
	if got := testing.AllocsPerRun(20, run); got > ceiling {
		t.Errorf("untraced 4-rank query: %.0f allocations, ceiling %d", got, ceiling)
	}
}
