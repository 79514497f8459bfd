package exec

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/udf"
)

// batchRows renders a batch as sorted "id,id,..." strings for
// order-insensitive comparison.
func batchRows(b *Batch) []string {
	out := make([]string, b.NRows)
	for i := 0; i < b.NRows; i++ {
		s := ""
		for j := range b.Cols {
			s += fmt.Sprintf("%d,", b.Cols[j][i])
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// tableRowsAsIDs renders a table the same way (IDs and nulls only).
func tableRowsAsIDs(t *Table) []string {
	out := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		s := ""
		for _, v := range row {
			if v.Kind == expr.KindID {
				s += fmt.Sprintf("%d,", v.ID)
			} else {
				s += "0,"
			}
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func TestScanBatchMatchesScan(t *testing.T) {
	g := buildGraph(2)
	runWorld(t, 2, func(r *mpp.Rank) error {
		a := NewArena()
		for _, p := range []struct{ s, p, o string }{
			{"?s", "http://x/age", "?a"},
			{"?s", "?p", "?o"},
			{"http://x/person3", "http://x/age", "?a"},
			{"?s", "http://x/nosuch", "?o"},
			{"?s", "http://x/knows", "?s"}, // repeated var: no self-loops
		} {
			tp := pat(p.s, p.p, p.o)
			rows, err := Scan(r, g.Shard(r.ID()), g.Dict, tp)
			if err != nil {
				return err
			}
			batch, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, tp, a)
			if err != nil {
				return err
			}
			if got, want := batch.Len(), rows.Len(); got != want {
				return fmt.Errorf("pattern %v: batch %d rows, row engine %d", tp, got, want)
			}
			bt := batch.Materialize()
			br, rr := tableRowsAsIDs(bt), tableRowsAsIDs(rows)
			for i := range br {
				if br[i] != rr[i] {
					return fmt.Errorf("pattern %v row %d: %q vs %q", tp, i, br[i], rr[i])
				}
			}
		}
		return nil
	})
}

func TestHashJoinBatchMatchesHashJoin(t *testing.T) {
	g := buildGraph(2)
	runWorld(t, 2, func(r *mpp.Rank) error {
		a := NewArena()
		l, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/knows", "?t"), a)
		if err != nil {
			return err
		}
		rt, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?t", "http://x/age", "?a"), a)
		if err != nil {
			return err
		}
		joined, err := HashJoinBatch(r, l, rt, a)
		if err != nil {
			return err
		}
		// The engines partition by different hash functions, so per-rank
		// counts may differ; the gathered (global) row set must not.
		got, err := GatherBatch(r, joined, a)
		if err != nil {
			return err
		}
		lr, err := Scan(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/knows", "?t"))
		if err != nil {
			return err
		}
		rr, err := Scan(r, g.Shard(r.ID()), g.Dict, pat("?t", "http://x/age", "?a"))
		if err != nil {
			return err
		}
		wj, err := HashJoin(r, lr, rr)
		if err != nil {
			return err
		}
		want, err := Gather(r, wj)
		if err != nil {
			return err
		}
		if got.Len() != want.Len() {
			return fmt.Errorf("join rows: batch %d, row %d", got.Len(), want.Len())
		}
		gm, wm := tableRowsAsIDs(got.Materialize()), tableRowsAsIDs(want)
		for i := range gm {
			if gm[i] != wm[i] {
				return fmt.Errorf("join row %d: %q vs %q", i, gm[i], wm[i])
			}
		}
		return nil
	})
}

func TestLeftJoinBatchNullExtension(t *testing.T) {
	g := buildGraph(1)
	runWorld(t, 1, func(r *mpp.Rank) error {
		a := NewArena()
		l, err := ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/age", "?a"), a)
		if err != nil {
			return err
		}
		// Right side empty: every left row survives null-extended.
		empty, err := ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/nosuch", "?d"), a)
		if err != nil {
			return err
		}
		out, err := LeftJoinBatch(r, l, empty, a)
		if err != nil {
			return err
		}
		if out.Len() != l.Len() {
			return fmt.Errorf("left join dropped rows: %d vs %d", out.Len(), l.Len())
		}
		di := out.Col("d")
		if di < 0 {
			return fmt.Errorf("missing null-extended column, vars %v", out.Vars)
		}
		for i := 0; i < out.NRows; i++ {
			if out.Cols[di][i] != dict.None {
				return fmt.Errorf("row %d: unmatched right column bound to %d", i, out.Cols[di][i])
			}
		}
		// Materialized nulls must be expr.Null, as in the row engine.
		tab := out.Materialize()
		for _, row := range tab.Rows {
			if !row[di].IsNull() {
				return fmt.Errorf("materialized null cell = %v", row[di])
			}
		}
		return nil
	})
}

func TestDistinctAndFilterBatch(t *testing.T) {
	g := buildGraph(2)
	reg := udf.NewRegistry()
	runWorld(t, 2, func(r *mpp.Rank) error {
		a := NewArena()
		b, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/age", "?a"), a)
		if err != nil {
			return err
		}
		e := &expr.Cmp{Op: expr.GE, L: &expr.Var{Name: "a"}, R: &expr.Const{Val: expr.Float(30)}}
		prof := udf.NewProfiler()
		res := expr.DictResolver{Dict: g.Dict}
		fb, fstats, err := FilterBatch(r, b, e, reg, prof, res, FilterOpts{}, a)
		if err != nil {
			return err
		}
		if fstats.Evaluated != b.Len() {
			return fmt.Errorf("evaluated %d of %d", fstats.Evaluated, b.Len())
		}
		db, err := DistinctGlobalBatch(r, fb, a)
		if err != nil {
			return err
		}
		gb, err := GatherBatch(r, db, a)
		if err != nil {
			return err
		}
		// Ages 30..39 → 10 distinct rows on every rank after gather.
		if gb.Len() != 10 {
			return fmt.Errorf("gathered %d rows, want 10", gb.Len())
		}
		return nil
	})
}

// TestArenaWarmReuse pins the allocation contract: a second identical
// query against a Reset arena must add zero fresh heap.
func TestArenaWarmReuse(t *testing.T) {
	g := buildGraph(1)
	a := NewArena()
	run := func() {
		runWorld(t, 1, func(r *mpp.Rank) error {
			l, err := ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/knows", "?t"), a)
			if err != nil {
				return err
			}
			rt, err := ScanBatch(r, g.Shard(0), g.Dict, pat("?t", "http://x/age", "?v"), a)
			if err != nil {
				return err
			}
			_, err = HashJoinBatch(r, l, rt, a)
			return err
		})
	}
	run()
	b0, m0 := a.Fresh()
	if b0 <= 0 || m0 <= 0 {
		t.Fatalf("cold run reported no fresh heap: %d/%d", b0, m0)
	}
	for i := 0; i < 3; i++ {
		a.Reset()
		run()
		b1, m1 := a.Fresh()
		if b1 != b0 || m1 != m0 {
			t.Fatalf("warm run %d grew the arena: bytes %d->%d mallocs %d->%d", i, b0, b1, m0, m1)
		}
	}
}

func TestArenaPoolSlots(t *testing.T) {
	p := NewArenaPool()
	s1 := p.Get(3, 2)
	if len(s1) != 2 {
		t.Fatalf("set size = %d", len(s1))
	}
	s1[0].AllocIDs(10)
	p.Put(3, s1)
	s2 := p.Get(3, 2)
	if s2[0] != s1[0] {
		t.Fatal("slot did not recycle its arena set")
	}
	if b, _ := s2[0].Fresh(); b <= 0 {
		t.Fatal("recycled arena lost its slab")
	}
	// Unslotted gets draw from the shared free list.
	p.Put(-1, s2)
	s3 := p.Get(-1, 2)
	if s3[0] != s2[0] {
		t.Fatal("free list did not recycle")
	}
}

// TestGatherToFinishesOnRootOnly: both gathers run what follows them
// once, on the root, over every rank's rows, and hand each rank that
// one result.
func TestGatherToFinishesOnRootOnly(t *testing.T) {
	g := buildGraph(4)
	var finishes atomic.Int64
	tabs := make([]*Table, 4)
	batches := make([]*Batch, 4)
	runWorld(t, 4, func(r *mpp.Rank) error {
		a := NewArena()
		b, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/age", "?a"), a)
		if err != nil {
			return err
		}
		local := b.Materialize()
		tabs[r.ID()], err = GatherBatchTo(r, b, a, func(all *Batch) (*Table, error) {
			finishes.Add(1)
			if r.ID() != RootRank {
				return nil, fmt.Errorf("batch finish ran on rank %d", r.ID())
			}
			return all.Materialize(), nil
		})
		if err != nil {
			return err
		}
		rowTab, err := GatherTo(r, local, func(all *Table) (*Table, error) {
			finishes.Add(1)
			if r.ID() != RootRank {
				return nil, fmt.Errorf("row finish ran on rank %d", r.ID())
			}
			return all, nil
		})
		if err != nil {
			return err
		}
		if got, want := tableRowsAsIDs(rowTab), tableRowsAsIDs(tabs[r.ID()]); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("rank %d: row gather %v, batch gather %v", r.ID(), got, want)
		}
		batches[r.ID()], err = GatherBatch(r, b, a)
		return err
	})
	if finishes.Load() != 2 {
		t.Fatalf("finish ran %d times over 2 gathers, want 2", finishes.Load())
	}
	for i := range tabs {
		if tabs[i] != tabs[0] || batches[i] != batches[0] {
			t.Fatalf("rank %d holds its own copy of the gathered result", i)
		}
	}
	if tabs[0].Len() != 20 || batches[0].Len() != 20 { // buildGraph: 20 people with an age
		t.Fatalf("gathered %d rows (batch %d), want 20", tabs[0].Len(), batches[0].Len())
	}
}

// TestFilterBatchUDFMemoKeys drives the three argument shapes of a pure
// UDF through FilterBatch and the row oracle over the same registry:
// a bare variable memoizes on the dictionary ID ("3" and "3.0" are two
// IDs, two executions), a nested call or an arithmetic argument on the
// computed value (one execution for both rows), the body never sees an
// ID, and a warm pass replays every stored cost — same profile, same
// clock charge — without running the function again.
func TestFilterBatchUDFMemoKeys(t *testing.T) {
	d := dict.New()
	in := NewBatch("x")
	for _, lit := range []string{"3", "3.0", "4", "3"} {
		in.Cols[0] = append(in.Cols[0], d.EncodeLiteral(lit))
		in.NRows++
	}
	res := expr.NewCachedResolver(expr.DictResolver{Dict: d})

	execs := map[string]*int{"f": new(int), "g": new(int)}
	reg := udf.NewRegistry()
	for name, n := range execs {
		if err := reg.RegisterWithCost(name, func(args []expr.Value) (expr.Value, error) {
			*n++
			if len(args) != 1 || args[0].Kind != expr.KindFloat {
				return expr.Null, fmt.Errorf("%s(number), got %v", name, args)
			}
			return expr.Float(args[0].Num + 1), nil
		}, func(args []expr.Value) float64 { return args[0].Num / 100 }); err != nil {
			t.Fatal(err)
		}
		if err := reg.MarkPure(name); err != nil {
			t.Fatal(err)
		}
	}
	x := &expr.Var{Name: "x"}
	call := func(name string, arg expr.Expr) expr.Expr {
		return &expr.Call{Name: name, Args: []expr.Expr{arg}}
	}
	cases := []struct {
		name   string
		arg    expr.Expr // f's argument
		min    float64   // FILTER(f(arg) >= min) keeps the "4" row only
		fExecs int       // distinct memo keys f is called with
		gExecs int
	}{
		{"f(?x)", x, 4.5, 3, 0}, // the IDs of "3", "3.0" and "4"
		{"f(g(?x))", call("g", x), 5.5, 2, 3},
		{"f(?x * 2)", &expr.Arith{Op: expr.Mul, L: x, R: &expr.Const{Val: expr.Float(2)}}, 8, 2, 0},
	}
	for _, tc := range cases {
		e := &expr.Cmp{Op: expr.GE, L: call("f", tc.arg), R: &expr.Const{Val: expr.Float(tc.min)}}
		*execs["f"], *execs["g"] = 0, 0
		var cold, warm, oracle FilterStats
		var coldProf, warmProf, oracleProf *udf.Profiler
		var passed []string
		run := func(stats *FilterStats, prof **udf.Profiler, rows bool) *mpp.Report {
			return runWorld(t, 1, func(r *mpp.Rank) error {
				*prof = udf.NewProfiler()
				if rows {
					_, st, err := Filter(r, in.Materialize(), e, reg, *prof, res, FilterOpts{})
					*stats = st
					return err
				}
				out, st, err := FilterBatch(r, in, e, reg, *prof, res, FilterOpts{}, NewArena())
				*stats = st
				passed = batchRows(out)
				return err
			})
		}
		coldRep := run(&cold, &coldProf, false)
		if got := *execs["f"]; got != tc.fExecs {
			t.Errorf("%s: f ran %d times cold, want %d", tc.name, got, tc.fExecs)
		}
		if got := *execs["g"]; got != tc.gExecs {
			t.Errorf("%s: g ran %d times cold, want %d", tc.name, got, tc.gExecs)
		}
		if cold.Errors != 0 || cold.Evaluated != 4 {
			t.Errorf("%s: cold stats %+v", tc.name, cold)
		}
		*execs["f"], *execs["g"] = 0, 0
		warmRep := run(&warm, &warmProf, false)
		oracleRep := run(&oracle, &oracleProf, true)
		if *execs["f"] != 0 || *execs["g"] != 0 {
			t.Errorf("%s: warm passes ran f %d and g %d times, want 0", tc.name, *execs["f"], *execs["g"])
		}
		if len(passed) != 1 || warm.Passed != 1 {
			t.Errorf("%s: rows out %v, stats %+v; want the one \"4\" row", tc.name, passed, warm)
		}
		for _, other := range []struct {
			what  string
			stats FilterStats
			prof  *udf.Profiler
			rep   *mpp.Report
		}{{"warm batch", warm, warmProf, warmRep}, {"warm row oracle", oracle, oracleProf, oracleRep}} {
			if other.stats.Passed != cold.Passed || other.stats.Errors != 0 || other.stats.UDFCost != cold.UDFCost {
				t.Errorf("%s: %s stats %+v differ from cold %+v", tc.name, other.what, other.stats, cold)
			}
			if fmt.Sprint(other.prof.Snapshot()) != fmt.Sprint(coldProf.Snapshot()) {
				t.Errorf("%s: %s profile %v differs from cold %v", tc.name, other.what, other.prof.Snapshot(), coldProf.Snapshot())
			}
			if other.rep.Makespan != coldRep.Makespan {
				t.Errorf("%s: %s makespan %g differs from cold %g", tc.name, other.what, other.rep.Makespan, coldRep.Makespan)
			}
		}
	}
}
