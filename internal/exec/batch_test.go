package exec

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/sparql"
	"ids/internal/triple"
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

// scanByHand is the in-test reference scan: every triple of every
// shard, matched against the pattern position by position, rendered
// like batchRows.
func scanByHand(g *kg.Graph, tp sparql.TriplePattern) (vars []string, rows []string) {
	pos := []sparql.TermOrVar{tp.S, tp.P, tp.O}
	for _, p := range pos {
		if p.IsVar && !slices.Contains(vars, p.Var) {
			vars = append(vars, p.Var)
		}
	}
	for i := 0; i < g.NumShards(); i++ {
		g.Shard(i).Match(triple.Pattern{}, func(t triple.Triple) bool {
			bound := map[string]dict.ID{}
			for k, have := range []dict.ID{t.S, t.P, t.O} {
				want, isConst := bound[pos[k].Var]
				if !pos[k].IsVar {
					want, isConst = g.Dict.Lookup(pos[k].Term)
					if !isConst {
						return true // a term the graph never saw matches nothing
					}
				}
				if isConst && want != have {
					return true
				}
				if pos[k].IsVar {
					bound[pos[k].Var] = have
				}
			}
			s := ""
			for _, v := range vars {
				s += fmt.Sprintf("%d,", bound[v])
			}
			rows = append(rows, s)
			return true
		})
	}
	sort.Strings(rows)
	return vars, rows
}

// gathered runs body on every rank of a 2-rank world and returns the
// root's gathered result.
func gathered(t *testing.T, g *kg.Graph, body func(r *mpp.Rank, a *Arena) (*Batch, error)) *Batch {
	t.Helper()
	var out *Batch
	runWorld(t, g.NumShards(), func(r *mpp.Rank) error {
		a := NewArena()
		b, err := body(r, a)
		if err != nil {
			return err
		}
		all, err := GatherBatch(r, b, a)
		if r.ID() == RootRank {
			out = all
		}
		return err
	})
	return out
}

func TestScanBatchMatchesNestedLoop(t *testing.T) {
	g := buildGraph(2)
	for _, p := range []struct{ s, p, o string }{
		{"?s", "http://x/age", "?a"},
		{"?s", "?p", "?o"},
		{"http://x/person3", "http://x/age", "?a"},
		{"?s", "http://x/nosuch", "?o"},
		{"?s", "http://x/knows", "?s"}, // repeated var: no self-loops
		{"?s", "?p", "?s"},
	} {
		tp := pat(p.s, p.p, p.o)
		got := gathered(t, g, func(r *mpp.Rank, a *Arena) (*Batch, error) {
			return ScanBatch(r, g.Shard(r.ID()), g.Dict, tp, a)
		})
		vars, want := scanByHand(g, tp)
		if !slices.Equal(got.Vars, vars) || !slices.Equal(batchRows(got), want) {
			t.Errorf("pattern %v:\n batch %v %v\n by hand %v %v", tp, got.Vars, batchRows(got), vars, want)
		}
	}
}

func TestHashJoinBatchMatchesNestedLoop(t *testing.T) {
	g := buildGraph(2)
	left, right := pat("?s", "http://x/knows", "?t"), pat("?t", "http://x/age", "?a")
	got := gathered(t, g, func(r *mpp.Rank, a *Arena) (*Batch, error) {
		l, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, left, a)
		if err != nil {
			return nil, err
		}
		rt, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, right, a)
		if err != nil {
			return nil, err
		}
		return HashJoinBatch(r, l, rt, a)
	})
	// Nested loop over the two hand scans: "s,t," joins "t,a," on t.
	_, ls := scanByHand(g, left)
	_, rs := scanByHand(g, right)
	var want []string
	for _, l := range ls {
		for _, r := range rs {
			if lt, rt := strings.Split(l, ","), strings.Split(r, ","); lt[1] == rt[0] {
				want = append(want, l+rt[1]+",")
			}
		}
	}
	sort.Strings(want)
	if len(want) != 19 { // buildGraph: persons 1..19 each know an aged person
		t.Fatalf("hand join produced %d rows, want 19", len(want))
	}
	if !slices.Equal(got.Vars, []string{"s", "t", "a"}) || !slices.Equal(batchRows(got), want) {
		t.Fatalf("join:\n batch %v %v\n by hand %v", got.Vars, batchRows(got), want)
	}
}

// TestProbeJoinBatchMatchesHashJoin joins patterns into a stream whose
// rows sit on the rank owning their ?t as a subject (a scan with
// subject ?t) both ways: through each rank's own index, and by the
// distributed hash join. The answers and headers must be equal.
func TestProbeJoinBatchMatchesHashJoin(t *testing.T) {
	g := buildGraph(3)
	left := pat("?t", "http://x/age", "?a")
	for _, p := range []struct{ s, p, o string }{
		{"?t", "http://x/name", "?n"},
		{"?t", "?p", "?o"},
		{"?t", "?p", "?p"},                        // repeated new variable
		{"?t", "http://x/knows", "?t"},            // the key twice: no self-loops
		{"?t", "?p", "\"p4\""},                    // constant object
		{"?t", "http://x/nosuch", "?o"},           // a term the graph never saw
		{"?t", "http://x/age", "?x"},              // one match per row
		{"?t", "http://x/knows", "http://x/none"}, // nothing matches
	} {
		tp := pat(p.s, p.p, p.o)
		probed := gathered(t, g, func(r *mpp.Rank, a *Arena) (*Batch, error) {
			l, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, left, a)
			if err != nil {
				return nil, err
			}
			out, _ := ProbeJoinBatch(r, g.Shard(r.ID()), g.Dict, l, l.Col("t"), tp, a)
			return out, nil
		})
		hashed := gathered(t, g, func(r *mpp.Rank, a *Arena) (*Batch, error) {
			l, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, left, a)
			if err != nil {
				return nil, err
			}
			rt, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, tp, a)
			if err != nil {
				return nil, err
			}
			return HashJoinBatch(r, l, rt, a)
		})
		if !slices.Equal(probed.Vars, hashed.Vars) || !slices.Equal(batchRows(probed), batchRows(hashed)) {
			t.Errorf("pattern %v:\n probe %v %v\n hash  %v %v", tp, probed.Vars, batchRows(probed), hashed.Vars, batchRows(hashed))
		}
	}
	// An unbound key is no subject: it must not probe as a wildcard.
	runWorld(t, 1, func(r *mpp.Rank) error {
		g1 := buildGraph(1)
		l := &Batch{Vars: []string{"t"}, Cols: [][]dict.ID{{dict.None, dict.None}}, NRows: 2}
		out, matched := ProbeJoinBatch(r, g1.Shard(0), g1.Dict, l, 0, pat("?t", "?p", "?o"), NewArena())
		if out.Len() != 0 || matched != 0 {
			return fmt.Errorf("unbound keys matched %d triples into %d rows", matched, out.Len())
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
		// Materialized nulls must be expr.Null.
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

// TestHashBuildSizedToTheBuild: the build structure an arena hands out
// is sized and readied for the join at hand, whatever the arena built
// before (a Go map cleared per join cost as much as its largest build
// ever), and rows that collide in a bucket without sharing a key do not
// join.
func TestHashBuildSizedToTheBuild(t *testing.T) {
	a := NewArena()
	a.buildFor(10000)
	b0, m0 := a.Fresh()
	hb := a.buildFor(3)
	if len(hb.heads) != 16 || len(hb.next) != 3 {
		t.Fatalf("after a 10000-row build, buildFor(3) readied %d buckets, %d links", len(hb.heads), len(hb.next))
	}
	for i, h := range hb.heads {
		if h != -1 {
			t.Fatalf("bucket %d not empty: %d", i, h)
		}
	}
	if b1, m1 := a.Fresh(); b1 != b0 || m1 != m0 {
		t.Fatalf("a smaller build grew the arena: %d/%d -> %d/%d", b0, m0, b1, m1)
	}

	// 40 distinct keys in at most 128 buckets on each side: collisions
	// are certain across the run, matches must still be exact.
	left := &Batch{Vars: []string{"k"}, Cols: [][]dict.ID{make([]dict.ID, 40)}, NRows: 40}
	right := &Batch{Vars: []string{"k", "v"}, Cols: [][]dict.ID{make([]dict.ID, 40), make([]dict.ID, 40)}, NRows: 40}
	for i := 0; i < 40; i++ {
		left.Cols[0][i] = dict.ID(2*i + 1) // odd keys 1..79
		right.Cols[0][i] = dict.ID(i + 1)  // keys 1..40
		right.Cols[1][i] = dict.ID(1000 + i)
	}
	runWorld(t, 1, func(r *mpp.Rank) error {
		out, err := HashJoinBatch(r, left, right, a)
		if err != nil {
			return err
		}
		if out.NRows != 20 {
			t.Errorf("join rows = %d, want 20 (odd keys up to 39)", out.NRows)
		}
		for i := 0; i < out.NRows; i++ {
			if k, v := out.Cols[0][i], out.Cols[1][i]; k%2 != 1 || v != 1000+k-1 {
				t.Errorf("row %d: k=%d v=%d", i, k, v)
			}
		}
		return nil
	})
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

// TestGatherToFinishesOnRootOnly: the gather runs what follows it once,
// on the root, over every rank's rows, and hands each rank that one
// result.
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
		tabs[r.ID()], err = GatherBatchTo(r, b, a, func(all *Batch) (*Table, error) {
			finishes.Add(1)
			if r.ID() != RootRank {
				return nil, fmt.Errorf("finish ran on rank %d", r.ID())
			}
			return all.Materialize(), nil
		})
		if err != nil {
			return err
		}
		batches[r.ID()], err = GatherBatch(r, b, a)
		return err
	})
	if finishes.Load() != 1 {
		t.Fatalf("finish ran %d times, want 1", finishes.Load())
	}
	for i := range tabs {
		if tabs[i] != tabs[0] || batches[i] != batches[0] {
			t.Fatalf("rank %d holds its own copy of the gathered result", i)
		}
	}
	if tabs[0].Len() != 20 || batches[0].Len() != 20 { // buildGraph: 20 people with an age
		t.Fatalf("gathered %d rows (batch %d), want 20", tabs[0].Len(), batches[0].Len())
	}
	_, want := scanByHand(g, pat("?s", "http://x/age", "?a"))
	if got := tableRowsAsIDs(tabs[0]); !slices.Equal(got, want) {
		t.Fatalf("gathered rows %v, want %v", got, want)
	}
}

// TestFilterBatchUDFMemoKeys drives the three argument shapes of a pure
// UDF through FilterBatch:
// a bare variable memoizes on the dictionary ID ("3" and "3.0" are two
// IDs, two executions), a nested call or an arithmetic argument on the
// computed value (one execution for both rows), the body never sees an
// ID, and a warm pass replays every stored cost — same profile, same
// clock charge — without running the function again.
func TestFilterBatchUDFMemoKeys(t *testing.T) {
	d := dict.New()
	in := NewBatch("x")
	for _, lit := range []string{"3", "3.0", "4", "3"} {
		in.Cols[0] = append(in.Cols[0], d.Encode(dict.Term{Kind: dict.Literal, Value: lit}))
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
		var cold, warm FilterStats
		var coldProf, warmProf *udf.Profiler
		var passed []string
		run := func(stats *FilterStats, prof **udf.Profiler) *mpp.Report {
			return runWorld(t, 1, func(r *mpp.Rank) error {
				*prof = udf.NewProfiler()
				out, st, err := FilterBatch(r, in, e, reg, *prof, res, FilterOpts{}, NewArena())
				*stats = st
				passed = batchRows(out)
				return err
			})
		}
		coldRep := run(&cold, &coldProf)
		if got := *execs["f"]; got != tc.fExecs {
			t.Errorf("%s: f ran %d times cold, want %d", tc.name, got, tc.fExecs)
		}
		if got := *execs["g"]; got != tc.gExecs {
			t.Errorf("%s: g ran %d times cold, want %d", tc.name, got, tc.gExecs)
		}
		if cold.Evaluated != 4 {
			t.Errorf("%s: cold stats %+v", tc.name, cold)
		}
		*execs["f"], *execs["g"] = 0, 0
		warmRep := run(&warm, &warmProf)
		if *execs["f"] != 0 || *execs["g"] != 0 {
			t.Errorf("%s: warm passes ran f %d and g %d times, want 0", tc.name, *execs["f"], *execs["g"])
		}
		if len(passed) != 1 || warm.Passed != 1 {
			t.Errorf("%s: rows out %v, stats %+v; want the one \"4\" row", tc.name, passed, warm)
		}
		if warm.Passed != cold.Passed || warm.Evaluated != cold.Evaluated {
			t.Errorf("%s: warm stats %+v differ from cold %+v", tc.name, warm, cold)
		}
		if fmt.Sprint(warmProf.Snapshot()) != fmt.Sprint(coldProf.Snapshot()) {
			t.Errorf("%s: warm profile %v differs from cold %v", tc.name, warmProf.Snapshot(), coldProf.Snapshot())
		}
		if warmRep.Makespan != coldRep.Makespan {
			t.Errorf("%s: warm makespan %g differs from cold %g", tc.name, warmRep.Makespan, coldRep.Makespan)
		}
	}
}
