package exec

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/udf"
)

// semanticsBatch is the fixture of TestFilterSemantics: eight rows of
// ?v (the literals "0".."7"), ?d (row i's literal on even rows, unbound
// on odd ones, as an unmatched OPTIONAL leaves it) and ?s (the text
// "s<i>").
func semanticsBatch() (*Batch, *dict.Dict) {
	d := dict.New()
	lit := func(s string) dict.ID { return d.Encode(dict.Term{Kind: dict.Literal, Value: s}) }
	b := NewBatch("v", "d", "s")
	for i := 0; i < 8; i++ {
		v := strconv.Itoa(i)
		od := dict.None
		if i%2 == 0 {
			od = lit(v)
		}
		b.Cols[0] = append(b.Cols[0], lit(v))
		b.Cols[1] = append(b.Cols[1], od)
		b.Cols[2] = append(b.Cols[2], lit("s"+v))
		b.NRows++
	}
	return b, d
}

// semanticsRegistry registers the fixture's UDFs, each with a declared
// cost so the clock is deterministic: f(x) = 2x is pure and costs
// 0.1+0.01x (so the order of the charges shows in the clock's bits),
// g(x) = x+1 is not pure and costs 0.3, boom(x) fails on odd x and
// costs 0.7. "nosuch" is left unregistered.
func semanticsRegistry(t *testing.T) *udf.Registry {
	t.Helper()
	reg := udf.NewRegistry()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	num := func(args []expr.Value) (float64, error) {
		if len(args) != 1 || args[0].Kind != expr.KindFloat {
			return 0, fmt.Errorf("want one number, got %v", args)
		}
		return args[0].Num, nil
	}
	must(reg.RegisterWithCost("f", func(args []expr.Value) (expr.Value, error) {
		x, err := num(args)
		return expr.Float(2 * x), err
	}, func(args []expr.Value) float64 { return 0.1 + 0.01*args[0].Num }))
	must(reg.MarkPure("f"))
	must(reg.RegisterWithCost("g", func(args []expr.Value) (expr.Value, error) {
		x, err := num(args)
		return expr.Float(x + 1), err
	}, func([]expr.Value) float64 { return 0.3 }))
	must(reg.RegisterWithCost("boom", func(args []expr.Value) (expr.Value, error) {
		x, err := num(args)
		if err == nil && int(x)%2 == 1 {
			err = errors.New("odd input")
		}
		return expr.Bool(err == nil), err
	}, func([]expr.Value) float64 { return 0.7 }))
	return reg
}

// profRow is one UDF's expected profile record: TotalSeconds is
// compared by its bits.
type profRow struct {
	execs, rejections int64
	seconds           uint64
}

// TestFilterSemantics pins what FilterBatch does with each FILTER form
// whose rules are easy to get wrong: which rows it keeps, the exact
// bits of the rank clock, and each UDF's profile record (executions,
// the bits of the summed seconds, rejections). Every case runs twice
// on one registry, so the pure f is answered from the memo the second
// time, and both runs must agree with the table.
func TestFilterSemantics(t *testing.T) {
	v, d, s := &expr.Var{Name: "v"}, &expr.Var{Name: "d"}, &expr.Var{Name: "s"}
	num := func(x float64) expr.Expr { return &expr.Const{Val: expr.Float(x)} }
	cmp := func(op expr.CmpOp, l, r expr.Expr) expr.Expr { return &expr.Cmp{Op: op, L: l, R: r} }
	fn := func(name string, args ...expr.Expr) expr.Expr { return &expr.Call{Name: name, Args: args} }
	and := func(cs ...expr.Expr) expr.Expr { return &expr.And{Children: cs} }
	cases := []struct {
		name  string
		e     expr.Expr
		kept  string // the kept rows' ?v, in order
		clock uint64 // bits of the rank clock afterwards
		prof  map[string]profRow
	}{
		// An unbound cell is an error, so negating it cannot keep the
		// row; a bound cell is a non-null ID, whose EBV is true.
		{name: "not unbound", e: &expr.Not{Child: d}, kept: "", clock: 0, prof: map[string]profRow{}},
		{name: "unbound compared", e: cmp(expr.GT, d, num(1)), kept: "2 4 6", clock: 0, prof: map[string]profRow{}},
		// Different kinds are unequal, never an error.
		{name: "eq across kinds", e: cmp(expr.EQ, v, s), kept: "", clock: 0, prof: map[string]profRow{}},
		{name: "ne across kinds", e: cmp(expr.NE, v, s), kept: "0 1 2 3 4 5 6 7", clock: 0, prof: map[string]profRow{}},
		{name: "lt across kinds", e: cmp(expr.LT, v, s), kept: "", clock: 0, prof: map[string]profRow{}},
		{name: "udf errors", e: fn("boom", v), kept: "0 2 4 6", clock: 0x4016666666666667,
			prof: map[string]profRow{"boom": {8, 4, 0x4016666666666667}}},
		{name: "unknown udf", e: fn("nosuch", v), kept: "", clock: 0,
			prof: map[string]profRow{"nosuch": {8, 8, 0}}},
		{name: "division by zero", e: cmp(expr.GT, &expr.Arith{Op: expr.Div, L: v, R: &expr.Arith{Op: expr.Sub, L: v, R: num(3)}}, num(0)),
			kept: "4 5 6 7", clock: 0, prof: map[string]profRow{}},
		{name: "non-numeric arithmetic", e: cmp(expr.GT, &expr.Arith{Op: expr.Add, L: s, R: num(1)}, num(0)),
			kept: "", clock: 0, prof: map[string]profRow{}},
		{name: "nested call", e: cmp(expr.GT, fn("f", fn("g", v)), num(5)), kept: "2 3 4 5 6 7", clock: 0x400c7ae147ae147a,
			prof: map[string]profRow{"f": {8, 2, 0x3ff28f5c28f5c290}, "g": {8, 2, 0x4003333333333333}}},
		{name: "constant conjunct", e: and(cmp(expr.LT, num(1), num(2)), cmp(expr.GT, fn("f", v), num(6))), kept: "4 5 6 7",
			clock: 0x3ff147ae147ae148, prof: map[string]profRow{"f": {8, 4, 0x3ff147ae147ae148}}},
		{name: "false constant conjunct", e: and(cmp(expr.LT, num(2), num(1)), fn("f", v)), kept: "", clock: 0, prof: map[string]profRow{}},
		{name: "same udf twice", e: and(cmp(expr.GT, fn("f", v), num(2)), cmp(expr.LT, fn("f", v), num(12))), kept: "2 3 4 5",
			clock: 0x3fff333333333332, prof: map[string]profRow{"f": {14, 4, 0x3fff333333333332}}},
		{name: "two udfs", e: and(cmp(expr.GT, fn("g", v), num(2)), cmp(expr.GT, fn("f", v), num(7)), fn("boom", v)), kept: "4 6",
			clock: 0x401847ae147ae147, prof: map[string]profRow{"g": {8, 2, 0x4003333333333333},
				"f": {6, 2, 0x3febd70a3d70a3d8}, "boom": {4, 2, 0x4006666666666666}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := semanticsRegistry(t)
			for _, run := range []string{"cold", "warm"} {
				in, dd := semanticsBatch()
				res := expr.NewCachedResolver(expr.DictResolver{Dict: dd})
				prof := udf.NewProfiler()
				var kept string
				var clock float64
				runWorld(t, 1, func(r *mpp.Rank) error {
					out, st, err := FilterBatch(r, in, tc.e, reg, prof, res, FilterOpts{}, NewArena())
					if err != nil {
						return err
					}
					if st.Evaluated != 8 || st.Passed != out.Len() {
						return fmt.Errorf("stats %+v for %d kept rows", st, out.Len())
					}
					for i := 0; i < out.Len(); i++ {
						term, _ := dd.Decode(out.Cols[0][i])
						if kept != "" {
							kept += " "
						}
						kept += term.Value
					}
					clock = r.Now()
					return nil
				})
				if kept != tc.kept {
					t.Errorf("%s: kept %q, want %q", run, kept, tc.kept)
				}
				if got := math.Float64bits(clock); got != tc.clock {
					t.Errorf("%s: clock %v (%#x), want %#x", run, clock, got, tc.clock)
				}
				snap := prof.Snapshot()
				if len(snap) != len(tc.prof) {
					t.Errorf("%s: profile %v, want records for %v", run, snap, tc.prof)
				}
				for name, want := range tc.prof {
					st := snap[name]
					got := profRow{st.Execs, st.Rejections, math.Float64bits(st.TotalSeconds)}
					if got != want {
						t.Errorf("%s: profile of %s = {%d %d %#x} (%v s), want {%d %d %#x}", run, name,
							got.execs, got.rejections, got.seconds, st.TotalSeconds, want.execs, want.rejections, want.seconds)
					}
				}
			}
		})
	}
}

// TestFilterBatchMemoRaceReload is TestMemoRaceReload through the batch
// probe: four ranks filter over one registry while a reloader replaces
// the pure module UDF mod.f and marks it pure again, 200 times. mod.f
// answers version*nArgs + x, and spy, which is not pure and runs for
// every row in row order, sees each answer: a rank that has seen version
// v must never see an older one. A pass is bound to one table, so a
// probe that served a memo entry of a newer implementation while the
// pass's misses ran the older one would show as exactly that. Run with
// -race.
func TestFilterBatchMemoRaceReload(t *testing.T) {
	const nArgs, ranks = 16, 4
	d := dict.New()
	in := NewBatch("x")
	for i := 0; i < 4*probeRows; i++ { // four probes per pass
		in.Cols[0] = append(in.Cols[0], d.Encode(dict.Term{Kind: dict.Literal, Value: strconv.Itoa(i % nArgs)}))
		in.NRows++
	}
	res := expr.NewCachedResolver(expr.DictResolver{Dict: d})
	reg := udf.NewRegistry()
	load := func(version int) error {
		fn := func(args []expr.Value) (expr.Value, error) {
			return expr.Float(float64(version*nArgs) + args[0].Num), nil
		}
		if err := reg.RegisterDynamic("mod", "f", fn, nil); err != nil {
			return err
		}
		return reg.MarkPure("mod.f")
	}
	if err := load(0); err != nil {
		t.Fatal(err)
	}
	var seen [ranks]int
	var calls atomic.Int64
	var reported atomic.Bool
	if err := reg.Register("spy", func(args []expr.Value) (expr.Value, error) {
		v, x, rank := int(args[0].Num), int(args[1].Num), int(args[2].Num)
		if calls.Add(1)%64 == 0 {
			runtime.Gosched() // let reloads land inside a pass
		}
		if v%nArgs != x || v/nArgs < seen[rank] {
			if reported.CompareAndSwap(false, true) {
				t.Errorf("rank %d: mod.f(%d) = %d after version %d was seen", rank, x, v, seen[rank])
			}
			return expr.Null, errors.New("version went back")
		}
		seen[rank] = v / nArgs
		return expr.Bool(true), nil
	}); err != nil {
		t.Fatal(err)
	}
	x := &expr.Var{Name: "x"}
	stop, done := make(chan struct{}), make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = mpp.Run(topo(ranks), mpp.DefaultNet(), 1, func(r *mpp.Rank) error {
			e := &expr.Call{Name: "spy", Args: []expr.Expr{
				&expr.Call{Name: "mod.f", Args: []expr.Expr{x}}, x, &expr.Const{Val: expr.Float(float64(r.ID()))}}}
			for {
				select {
				case <-stop:
					return nil
				default:
				}
				out, _, err := FilterBatch(r, in, e, reg, udf.NewProfiler(), res, FilterOpts{}, NewArena())
				if err != nil {
					return err
				}
				if out.Len() != in.Len() {
					return fmt.Errorf("rank %d kept %d of %d rows", r.ID(), out.Len(), in.Len())
				}
			}
		})
	}()
	for version := 1; version <= 200; version++ {
		// Reload only once the ranks have filtered a few hundred rows
		// since the last reload, so reloads land inside passes.
		for n := calls.Load(); calls.Load() < n+512 && !closed(done); {
			runtime.Gosched()
		}
		if err := load(version); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
}

func closed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
