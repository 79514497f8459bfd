package exec

import (
	"fmt"
	"sync"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/udf"
)

// benchGraph builds n entities with age/name literals and a knows
// chain — the same shape as buildGraph but sized for benchmarking.
func benchGraph(n, shards int) *kg.Graph {
	g := kg.New(shards)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	for i := 0; i < n; i++ {
		s := iri(fmt.Sprintf("http://x/person%d", i))
		g.Add(s, iri("http://x/age"), lit(fmt.Sprintf("%d", 20+i%60)))
		g.Add(s, iri("http://x/name"), lit(fmt.Sprintf("p%d", i)))
		if i > 0 {
			g.Add(s, iri("http://x/knows"), iri(fmt.Sprintf("http://x/person%d", i-1)))
		}
	}
	g.Seal()
	return g
}

const benchEntities = 4096

// benchWorld runs body on a 1-rank world, failing the benchmark on
// error. One world per iteration keeps the mpp fixed cost the same in
// every benchmark, so alloc deltas isolate the operator.
func benchWorld(b *testing.B, body func(r *mpp.Rank) error) {
	b.Helper()
	if _, err := mpp.Run(topo(1), mpp.DefaultNet(), 1, body); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkScanBatch(b *testing.B) {
	g := benchGraph(benchEntities, 1)
	tp := pat("?s", "http://x/age", "?a")
	a := NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		benchWorld(b, func(r *mpp.Rank) error {
			_, err := ScanBatch(r, g.Shard(0), g.Dict, tp, a)
			return err
		})
	}
}

func benchFilterExpr() expr.Expr {
	return &expr.Cmp{Op: expr.GE, L: &expr.Var{Name: "a"}, R: &expr.Const{Val: expr.Float(40)}}
}

func BenchmarkFilterBatch(b *testing.B) {
	g := benchGraph(benchEntities, 1)
	tp := pat("?s", "http://x/age", "?a")
	e := benchFilterExpr()
	reg := udf.NewRegistry()
	prof := udf.NewProfiler()
	res := expr.NewCachedResolver(expr.DictResolver{Dict: g.Dict})
	// The input batch lives in its own arena so the operator arena can
	// be Reset per iteration without clobbering the input columns.
	ain, a := NewArena(), NewArena()
	var in *Batch
	benchWorld(b, func(r *mpp.Rank) error {
		var err error
		in, err = ScanBatch(r, g.Shard(0), g.Dict, tp, ain)
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		benchWorld(b, func(r *mpp.Rank) error {
			_, _, err := FilterBatch(r, in, e, reg, prof, res, FilterOpts{}, a)
			return err
		})
	}
}

// benchUDFFilter builds the warm UDF-FILTER fixture: n entities each
// carrying a distinct 240-character sequence literal (the NCNPR shape),
// scanned into a batch, and FILTER(seq.score(?q) >= 0.5) over a pure,
// declared-cost UDF whose memo holds every row after the first pass.
func benchUDFFilter(tb testing.TB, n int) (*Batch, expr.Expr, *udf.Registry, expr.Resolver) {
	tb.Helper()
	g := kg.New(1)
	for i := 0; i < n; i++ {
		seq := []byte(fmt.Sprintf("%08d", i))
		for len(seq) < 240 {
			seq = append(seq, "ACDEFGHIKLMNPQRSTVWY"[(i+len(seq))%20])
		}
		g.Add(dict.Term{Kind: dict.IRI, Value: fmt.Sprintf("http://x/protein%d", i)},
			dict.Term{Kind: dict.IRI, Value: "http://x/seq"},
			dict.Term{Kind: dict.Literal, Value: string(seq)})
	}
	g.Seal()
	reg := udf.NewRegistry()
	if err := reg.RegisterWithCost("seq.score", func(args []expr.Value) (expr.Value, error) {
		if len(args) != 1 || args[0].Kind != expr.KindString {
			return expr.Null, fmt.Errorf("seq.score(sequence), got %v", args)
		}
		return expr.Float(float64(args[0].Str[7]-'0') / 10), nil
	}, func([]expr.Value) float64 { return 1e-3 }); err != nil {
		tb.Fatal(err)
	}
	if err := reg.MarkPure("seq.score"); err != nil {
		tb.Fatal(err)
	}
	var in *Batch
	if _, err := mpp.Run(topo(1), mpp.DefaultNet(), 1, func(r *mpp.Rank) error {
		var err error
		in, err = ScanBatch(r, g.Shard(0), g.Dict, pat("?p", "http://x/seq", "?q"), NewArena())
		return err
	}); err != nil {
		tb.Fatal(err)
	}
	e := &expr.Cmp{Op: expr.GE,
		L: &expr.Call{Name: "seq.score", Args: []expr.Expr{&expr.Var{Name: "q"}}},
		R: &expr.Const{Val: expr.Float(0.5)}}
	return in, e, reg, expr.NewCachedResolver(expr.DictResolver{Dict: g.Dict})
}

// BenchmarkFilterBatchUDFWarm is the per-row cost of a FILTER whose UDF
// conjunct is answered from the memo on every row — the steady state of
// a threshold sweep — without the serving stack around it.
func BenchmarkFilterBatchUDFWarm(b *testing.B) {
	in, e, reg, res := benchUDFFilter(b, benchEntities)
	prof := udf.NewProfiler()
	a := NewArena()
	run := func() {
		a.Reset()
		benchWorld(b, func(r *mpp.Rank) error {
			_, st, err := FilterBatch(r, in, e, reg, prof, res, FilterOpts{}, a)
			if err == nil && st.Passed == 0 {
				err = fmt.Errorf("filter stats %+v", st)
			}
			return err
		})
	}
	run() // fill the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchEntities, "ns/row")
}

// BenchmarkFilterBatchUDFWarmShared is BenchmarkFilterBatchUDFWarm on
// two ranks that filter their own copy of the batch at once over one
// registry, as the ranks of a query do: the memo's locks are contended.
// ns/row is per rank's row, comparable with the single-rank figure.
func BenchmarkFilterBatchUDFWarmShared(b *testing.B) {
	in, e, reg, res := benchUDFFilter(b, benchEntities)
	profs, arenas := []*udf.Profiler{udf.NewProfiler(), udf.NewProfiler()}, []*Arena{NewArena(), NewArena()}
	run := func() {
		if _, err := mpp.Run(topo(2), mpp.DefaultNet(), 1, func(r *mpp.Rank) error {
			a := arenas[r.ID()]
			a.Reset()
			_, st, err := FilterBatch(r, in, e, reg, profs[r.ID()], res, FilterOpts{}, a)
			if err == nil && st.Passed == 0 {
				err = fmt.Errorf("filter stats %+v", st)
			}
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	run() // fill the memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchEntities, "ns/row")
}

func BenchmarkHashJoinBatch(b *testing.B) {
	g := benchGraph(benchEntities, 1)
	ain, a := NewArena(), NewArena()
	var l, rt *Batch
	benchWorld(b, func(r *mpp.Rank) error {
		var err error
		if l, err = ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/knows", "?t"), ain); err != nil {
			return err
		}
		rt, err = ScanBatch(r, g.Shard(0), g.Dict, pat("?t", "http://x/age", "?v"), ain)
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		benchWorld(b, func(r *mpp.Rank) error {
			out, err := HashJoinBatch(r, l, rt, a)
			if err != nil {
				return err
			}
			if out.Len() == 0 {
				return fmt.Errorf("empty join")
			}
			return nil
		})
	}
}

// TestAllocCeilings pins the warm-path allocation budget of the
// columnar operators. Measured on the 4096-entity bench graph the warm
// operators sit at ~26 (scan), ~33 (filter) and ~48 (join) allocs per
// run — almost all of it the fixed mpp world setup — so the ceilings
// below carry ~2× headroom. The probe join (4095 index probes) costs
// what the scan does: nothing per row. A regression that reintroduces
// per-row or per-batch heap traffic (thousands of allocs) fails
// loudly. The warm UDF filter answers 4096 memo hits over 240-character
// literals inside the same fixed budget as the plain filter: zero
// allocations per row.
// Run in CI as the alloc-ceiling smoke step.
func TestAllocCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc ceilings are a bench-mode gate")
	}
	g := benchGraph(benchEntities, 1)
	tp := pat("?s", "http://x/age", "?a")
	e := benchFilterExpr()
	reg := udf.NewRegistry()
	prof := udf.NewProfiler()
	res := expr.NewCachedResolver(expr.DictResolver{Dict: g.Dict})
	ain := NewArena()
	var in, l, rt *Batch
	if _, err := mpp.Run(topo(1), mpp.DefaultNet(), 1, func(r *mpp.Rank) error {
		var err error
		if in, err = ScanBatch(r, g.Shard(0), g.Dict, tp, ain); err != nil {
			return err
		}
		if l, err = ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/knows", "?t"), ain); err != nil {
			return err
		}
		rt, err = ScanBatch(r, g.Shard(0), g.Dict, pat("?t", "http://x/age", "?v"), ain)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	uin, ue, ureg, ures := benchUDFFilter(t, benchEntities)
	cases := []struct {
		name    string
		ceiling float64
		pooled  bool // the path keeps a scratch buffer in a sync.Pool
		run     func(r *mpp.Rank, a *Arena) error
	}{
		{"scan", 60, false, func(r *mpp.Rank, a *Arena) error {
			_, err := ScanBatch(r, g.Shard(0), g.Dict, tp, a)
			return err
		}},
		{"filter", 80, false, func(r *mpp.Rank, a *Arena) error {
			_, _, err := FilterBatch(r, in, e, reg, prof, res, FilterOpts{}, a)
			return err
		}},
		{"filter_udf_warm", 80, true, func(r *mpp.Rank, a *Arena) error {
			_, _, err := FilterBatch(r, uin, ue, ureg, prof, ures, FilterOpts{}, a)
			return err
		}},
		{"join", 110, false, func(r *mpp.Rank, a *Arena) error {
			_, err := HashJoinBatch(r, l, rt, a)
			return err
		}},
		{"probe", 60, false, func(r *mpp.Rank, a *Arena) error {
			_, err := probeAge(r, g, l, a)
			return err
		}},
	}
	// The race detector makes sync.Pool drop a quarter of what it is
	// given, so there a pooled buffer is not an allocation-free one.
	probe := sync.Pool{New: func() any { return new([]byte) }}
	poolsLeak := testing.AllocsPerRun(10, func() {
		for i := 0; i < 64; i++ {
			probe.Put(probe.Get())
		}
	}) > 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pooled && poolsLeak {
				t.Skip("sync.Pool drops buffers here (race detector): the pooled memo key is not free")
			}
			a := NewArena()
			warm := func() {
				if _, err := mpp.Run(topo(1), mpp.DefaultNet(), 1, func(r *mpp.Rank) error {
					return tc.run(r, a)
				}); err != nil {
					t.Fatal(err)
				}
			}
			warm() // populate slabs and resolver caches
			got := testing.AllocsPerRun(5, func() {
				a.Reset()
				warm()
			})
			if got > tc.ceiling {
				t.Fatalf("%s: %.0f allocs/op exceeds pinned ceiling %.0f", tc.name, got, tc.ceiling)
			}
		})
	}
}

// probeAge joins ?t <age> ?v into l (whose ?t column the bench graph's
// one shard owns) through the shard's index: the probe-join twin of the
// hash join BenchmarkHashJoinBatch measures, with the same answer.
func probeAge(r *mpp.Rank, g *kg.Graph, l *Batch, a *Arena) (*Batch, error) {
	out, _ := probeJoin(r, g.Shard(0), g.Dict, l, l.Col("t"), pat("?t", "http://x/age", "?v"), a)
	if out.Len() != l.Len() {
		return nil, fmt.Errorf("probe join: %d rows, want %d", out.Len(), l.Len())
	}
	return out, nil
}

func BenchmarkProbeJoinBatch(b *testing.B) {
	g := benchGraph(benchEntities, 1)
	ain, a := NewArena(), NewArena()
	var l *Batch
	benchWorld(b, func(r *mpp.Rank) error {
		var err error
		l, err = ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/knows", "?t"), ain)
		return err
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		benchWorld(b, func(r *mpp.Rank) error {
			_, err := probeAge(r, g, l, a)
			return err
		})
	}
}

// BenchmarkAggregateBatch measures the columnar pipeline's aggregation
// boundary: late materialization of the gathered batch plus the
// row-based Aggregate, with ID→value decoding memoised by the cached
// resolver (as in the engine).
func BenchmarkAggregateBatch(b *testing.B) {
	g := benchGraph(benchEntities, 1)
	a := NewArena()
	var in *Batch
	benchWorld(b, func(r *mpp.Rank) error {
		var err error
		in, err = ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/age", "?a"), a)
		return err
	})
	res := expr.NewCachedResolver(expr.DictResolver{Dict: g.Dict})
	aggs := []AggSpec{{Func: "count", Var: "s", As: "n"}, {Func: "min", Var: "a", As: "lo"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab := in.Materialize()
		if _, err := Aggregate(tab, []string{"a"}, aggs, res); err != nil {
			b.Fatal(err)
		}
	}
}
