package exec

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/sparql"
	"ids/internal/udf"
)

func topo(n int) mpp.Topology { return mpp.Topology{Nodes: 1, RanksPerNode: n} }

func buildGraph(nshards int) *kg.Graph {
	g := kg.New(nshards)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	for i := 0; i < 20; i++ {
		s := iri(fmt.Sprintf("http://x/person%d", i))
		g.Add(s, iri("http://x/age"), lit(fmt.Sprintf("%d", 20+i)))
		g.Add(s, iri("http://x/name"), lit(fmt.Sprintf("p%d", i)))
		if i > 0 {
			g.Add(s, iri("http://x/knows"), iri(fmt.Sprintf("http://x/person%d", i-1)))
		}
	}
	g.Seal()
	return g
}

func pat(s, p, o string) sparql.TriplePattern {
	mk := func(x string) sparql.TermOrVar {
		if len(x) > 0 && x[0] == '?' {
			return sparql.V(x[1:])
		}
		if len(x) > 0 && x[0] == '"' {
			return sparql.T(dict.Term{Kind: dict.Literal, Value: x[1 : len(x)-1]})
		}
		return sparql.T(dict.Term{Kind: dict.IRI, Value: x})
	}
	return sparql.TriplePattern{S: mk(s), P: mk(p), O: mk(o)}
}

// runWorld executes body on an n-rank world, failing the test on error.
func runWorld(t *testing.T, n int, body func(r *mpp.Rank) error) *mpp.Report {
	t.Helper()
	rep, err := mpp.Run(topo(n), mpp.DefaultNet(), 1, body)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestScanBatchDistributed(t *testing.T) {
	g := buildGraph(4)
	var mu sync.Mutex
	total := 0
	runWorld(t, 4, func(r *mpp.Rank) error {
		b, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/age", "?a"), NewArena())
		if err != nil {
			return err
		}
		if len(b.Vars) != 2 || b.Vars[0] != "s" || b.Vars[1] != "a" {
			return fmt.Errorf("vars = %v", b.Vars)
		}
		mu.Lock()
		total += b.Len()
		mu.Unlock()
		return nil
	})
	if total != 20 {
		t.Fatalf("scanned %d age triples across ranks, want 20", total)
	}
}

func TestScanBatchUnknownTermEmpty(t *testing.T) {
	g := buildGraph(2)
	runWorld(t, 2, func(r *mpp.Rank) error {
		b, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/doesnotexist", "?o"), NewArena())
		if err != nil {
			return err
		}
		if b.Len() != 0 {
			return fmt.Errorf("unknown predicate matched %d", b.Len())
		}
		return nil
	})
}

func TestScanBatchRepeatedVariable(t *testing.T) {
	g := kg.New(1)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	g.Add(iri("http://x/a"), iri("http://x/self"), iri("http://x/a"))
	g.Add(iri("http://x/a"), iri("http://x/self"), iri("http://x/b"))
	g.Seal()
	runWorld(t, 1, func(r *mpp.Rank) error {
		b, err := ScanBatch(r, g.Shard(0), g.Dict, pat("?x", "http://x/self", "?x"), NewArena())
		if err != nil {
			return err
		}
		if b.Len() != 1 || len(b.Vars) != 1 {
			return fmt.Errorf("repeated var matched %d rows over %v, want 1 row of ?x", b.Len(), b.Vars)
		}
		return nil
	})
}

// idBatch builds a batch whose cells are the dictionary IDs of the given
// literals, one row per element of rows.
func idBatch(d *dict.Dict, vars []string, rows ...[]string) *Batch {
	b := NewBatch(vars...)
	for _, row := range rows {
		for c, lit := range row {
			b.Cols[c] = append(b.Cols[c], d.Encode(dict.Term{Kind: dict.Literal, Value: lit}))
		}
		b.NRows++
	}
	return b
}

func TestHashJoinBatchCrossProduct(t *testing.T) {
	d := dict.New()
	var totalRows int
	var mu sync.Mutex
	runWorld(t, 2, func(r *mpp.Rank) error {
		left, right := idBatch(d, []string{"a"}), idBatch(d, []string{"b"}, []string{"y"})
		if r.ID() == 0 {
			left = idBatch(d, []string{"a"}, []string{"1"}, []string{"2"})
			right = idBatch(d, []string{"b"}, []string{"x"})
		}
		out, err := HashJoinBatch(r, left, right, NewArena())
		if err != nil {
			return err
		}
		if len(out.Vars) != 2 || out.Vars[0] != "a" || out.Vars[1] != "b" {
			return fmt.Errorf("vars = %v", out.Vars)
		}
		mu.Lock()
		totalRows += out.Len()
		mu.Unlock()
		return nil
	})
	// 2 left rows x 2 replicated right rows.
	if totalRows != 4 {
		t.Fatalf("cross product rows = %d, want 4", totalRows)
	}
}

func TestDistinctGlobalBatchAcrossRanks(t *testing.T) {
	d := dict.New()
	runWorld(t, 4, func(r *mpp.Rank) error {
		a := NewArena()
		// Every rank holds the same two rows -> global distinct = 2.
		dedup, err := DistinctGlobalBatch(r, idBatch(d, []string{"v"}, []string{"1"}, []string{"2"}), a)
		if err != nil {
			return err
		}
		gathered, err := GatherBatch(r, dedup, a)
		if err != nil {
			return err
		}
		if gathered.Len() != 2 {
			return fmt.Errorf("global distinct = %d rows, want 2", gathered.Len())
		}
		return nil
	})
}

// --- Re-balancing ---

func TestCountTargets(t *testing.T) {
	got := CountTargets(10, 4)
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CountTargets = %v", got)
		}
	}
	sum := 0
	for _, x := range CountTargets(7, 3) {
		sum += x
	}
	if sum != 7 {
		t.Fatal("CountTargets does not conserve total")
	}
}

func TestCostTargetsPaperExample(t *testing.T) {
	// Paper §2.4.2 worked example: 1.4M solutions over 900 ranks; 500
	// ranks at 100 ops/s, 300 at 200 ops/s, 100 at 300 ops/s. The
	// assignment must be proportional 1:2:3 — slow ranks 1000, medium
	// 2000, fast 3000 solutions (the paper's chunk*ratio shape).
	rates := make([]float64, 900)
	for i := 0; i < 500; i++ {
		rates[i] = 100
	}
	for i := 500; i < 800; i++ {
		rates[i] = 200
	}
	for i := 800; i < 900; i++ {
		rates[i] = 300
	}
	targets := CostTargets(1_400_000, rates)
	if targets[0] != 1000 || targets[499] != 1000 {
		t.Fatalf("slow rank target = %d, want 1000", targets[0])
	}
	if targets[500] != 2000 || targets[799] != 2000 {
		t.Fatalf("medium rank target = %d, want 2000", targets[500])
	}
	if targets[800] != 3000 || targets[899] != 3000 {
		t.Fatalf("fast rank target = %d, want 3000", targets[800])
	}
	// Makespan: cost-aware 10s bound vs count-based ~15.6s, the
	// paper's claimed improvement direction.
	costTime := EstimatedMakespan(targets, rates)
	countTime := EstimatedMakespan(CountTargets(1_400_000, len(rates)), rates)
	if math.Abs(costTime-10) > 1e-9 {
		t.Fatalf("cost-aware makespan = %f, want 10", costTime)
	}
	if countTime <= costTime {
		t.Fatalf("count-based %f not worse than cost-aware %f", countTime, costTime)
	}
}

func TestCostTargetsConserveTotal(t *testing.T) {
	rates := []float64{1, 3, 0, 2.5, 7}
	for _, total := range []int{0, 1, 17, 1000, 99999} {
		targets := CostTargets(total, rates)
		sum := 0
		for _, x := range targets {
			sum += x
		}
		if sum != total {
			t.Fatalf("total %d: targets %v sum %d", total, targets, sum)
		}
	}
	// All-zero rates degrade to count-based.
	targets := CostTargets(10, []float64{0, 0})
	if targets[0] != 5 || targets[1] != 5 {
		t.Fatalf("zero-rate targets = %v", targets)
	}
}

func TestTransferPlanConserves(t *testing.T) {
	current := []int{10, 0, 5, 1}
	target := []int{4, 4, 4, 4}
	plan := TransferPlan(append([]int{}, current...), target)
	moved := make([]int, 4)
	for from := range plan {
		for to, n := range plan[from] {
			if n < 0 {
				t.Fatal("negative transfer")
			}
			moved[from] -= n
			moved[to] += n
		}
	}
	for i := range current {
		if current[i]+moved[i] != target[i] {
			t.Fatalf("rank %d: %d + %d != %d", i, current[i], moved[i], target[i])
		}
	}
}

func TestSendRowMatchesTransferPlan(t *testing.T) {
	current := []int{10, 0, 5, 1, 0, 8}
	target := []int{4, 4, 4, 4, 4, 4}
	plan := TransferPlan(append([]int{}, current...), target)
	for me := range current {
		row := SendRow(append([]int{}, current...), target, me)
		for dst := range row {
			if row[dst] != plan[me][dst] {
				t.Fatalf("SendRow(%d)[%d] = %d, plan = %d", me, dst, row[dst], plan[me][dst])
			}
		}
	}
}

// rawBatch is a one-column batch ?v of the IDs lo+1 .. lo+n: re-balancing
// moves cells without decoding them, so the IDs need no dictionary.
func rawBatch(lo, n int) *Batch {
	b := NewBatch("v")
	for i := 1; i <= n; i++ {
		b.Cols[0] = append(b.Cols[0], dict.ID(lo+i))
	}
	b.NRows = n
	return b
}

// rebalanceCounts re-balances a world in which rank 0 holds total rows
// and reports every rank's row count afterwards.
func rebalanceCounts(t *testing.T, total int, mode RebalanceMode, rate func(rank int) float64) []int {
	t.Helper()
	counts := make([]int, 4)
	runWorld(t, 4, func(r *mpp.Rank) error {
		in := rawBatch(0, 0)
		if r.ID() == 0 {
			in = rawBatch(0, total)
		}
		out, info, err := RebalanceBatchCounted(r, in, mode, rate(r.ID()), NewArena())
		if err != nil {
			return err
		}
		if want := out.Len() - in.Len(); info.Received-info.Sent != want {
			return fmt.Errorf("rank %d: sent %d, received %d, but grew by %d", r.ID(), info.Sent, info.Received, want)
		}
		counts[r.ID()] = out.Len()
		return nil
	})
	return counts
}

func TestRebalanceBatchCountEndToEnd(t *testing.T) {
	counts := rebalanceCounts(t, 100, RebalanceCount, func(int) float64 { return 1 })
	for i, c := range counts {
		if c != 25 {
			t.Fatalf("rank %d has %d rows after count rebalance: %v", i, c, counts)
		}
	}
}

func TestRebalanceBatchCostProportional(t *testing.T) {
	// Rank rates 1,1,2,2 -> targets 20,20,40,40.
	counts := rebalanceCounts(t, 120, RebalanceCost, func(rank int) float64 {
		if rank >= 2 {
			return 2
		}
		return 1
	})
	want := []int{20, 20, 40, 40}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestRebalanceBatchCostSimilarSpeedsFallsBack(t *testing.T) {
	// Within 20% of each other: must fall back to count-based.
	counts := rebalanceCounts(t, 100, RebalanceCost, func(rank int) float64 { return 1.0 + 0.05*float64(rank) })
	for i, c := range counts {
		if c != 25 {
			t.Fatalf("rank %d: %d rows; similar speeds should equalize: %v", i, c, counts)
		}
	}
}

func TestRebalanceBatchPreservesRows(t *testing.T) {
	var mu sync.Mutex
	var all []int
	runWorld(t, 3, func(r *mpp.Rank) error {
		out, _, err := RebalanceBatchCounted(r, rawBatch(r.ID()*1000, (r.ID()+1)*10), RebalanceCount, 1, NewArena())
		if err != nil {
			return err
		}
		mu.Lock()
		for _, id := range out.Cols[0] {
			all = append(all, int(id))
		}
		mu.Unlock()
		return nil
	})
	sort.Ints(all)
	var want []int
	for rank := 0; rank < 3; rank++ {
		for i := 1; i <= (rank+1)*10; i++ {
			want = append(want, rank*1000+i)
		}
	}
	if fmt.Sprint(all) != fmt.Sprint(want) {
		t.Fatalf("row multiset changed during rebalance:\n got  %v\n want %v", all, want)
	}
}

func TestRebalanceBatchNoneIsIdentity(t *testing.T) {
	runWorld(t, 2, func(r *mpp.Rank) error {
		in := rawBatch(r.ID(), 1)
		out, info, err := RebalanceBatchCounted(r, in, RebalanceNone, 1, NewArena())
		if err != nil {
			return err
		}
		if out != in || info != (RebalanceInfo{}) {
			return errors.New("RebalanceNone should return the same batch and move nothing")
		}
		return nil
	})
}

// --- Filter ---

func newTestRegistry(t *testing.T) *udf.Registry {
	t.Helper()
	reg := udf.NewRegistry()
	err := reg.RegisterWithCost("gt10", func(args []expr.Value) (expr.Value, error) {
		return expr.Bool(args[0].Num > 10), nil
	}, func([]expr.Value) float64 { return 0.01 })
	if err != nil {
		t.Fatal(err)
	}
	err = reg.RegisterWithCost("expensiveTrue", func(args []expr.Value) (expr.Value, error) {
		return expr.Bool(true), nil
	}, func([]expr.Value) float64 { return 1.0 })
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// numBatch returns a one-column batch ?v holding the literals lo ..
// lo+n-1 and the resolver that decodes them to numbers.
func numBatch(lo, n int) (*Batch, expr.Resolver) {
	d := dict.New()
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(lo + i)}
	}
	return idBatch(d, []string{"v"}, rows...), expr.DictResolver{Dict: d}
}

func call(name string) expr.Expr {
	return &expr.Call{Name: name, Args: []expr.Expr{&expr.Var{Name: "v"}}}
}

// record adds one execution of name to the profile, as FilterBatch
// records a call.
func record(p *udf.Profiler, name string, seconds float64, rejected bool) {
	p.Lock()
	defer p.Unlock()
	s := p.Stat(name)
	s.Execs++
	s.TotalSeconds += seconds
	if rejected {
		s.Rejections++
	}
}

func TestFilterBatchBasic(t *testing.T) {
	reg := newTestRegistry(t)
	runWorld(t, 1, func(r *mpp.Rank) error {
		prof := udf.NewProfiler()
		in, res := numBatch(0, 20)
		out, stats, err := FilterBatch(r, in, call("gt10"), reg, prof, res, FilterOpts{}, NewArena())
		if err != nil {
			return err
		}
		if out.Len() != 9 { // 11..19
			return fmt.Errorf("passed %d rows, want 9", out.Len())
		}
		if stats.Evaluated != 20 || stats.Passed != 9 {
			return fmt.Errorf("stats = %+v", stats)
		}
		s := prof.Get("gt10")
		if s.Execs != 20 || s.Rejections != 11 {
			return fmt.Errorf("profile = %+v", s)
		}
		if math.Abs(s.TotalSeconds-0.2) > 1e-9 {
			return fmt.Errorf("total = %f", s.TotalSeconds)
		}
		return nil
	})
}

func TestFilterBatchChargesClock(t *testing.T) {
	reg := newTestRegistry(t)
	rep := runWorld(t, 1, func(r *mpp.Rank) error {
		in, res := numBatch(0, 5)
		_, _, err := FilterBatch(r, in, call("expensiveTrue"), reg, udf.NewProfiler(), res, FilterOpts{}, NewArena())
		return err
	})
	if math.Abs(rep.Makespan-5.0) > 0.1 {
		t.Fatalf("makespan = %f, want ~5 (5 rows x 1s)", rep.Makespan)
	}
}

func TestFilterBatchSpeedFactor(t *testing.T) {
	reg := newTestRegistry(t)
	rep := runWorld(t, 1, func(r *mpp.Rank) error {
		prof := udf.NewProfiler()
		in, res := numBatch(0, 5)
		t0 := r.Now()
		_, _, err := FilterBatch(r, in, call("expensiveTrue"), reg, prof, res, FilterOpts{SpeedFactor: 2}, NewArena())
		if err != nil {
			return err
		}
		if got, _ := prof.EstimateCost("expensiveTrue"); math.Abs(got-2.0) > 1e-9 {
			return fmt.Errorf("profiled mean = %f, want 2 (speed factor applied)", got)
		}
		if got := r.Now() - t0; math.Abs(got-10) > 1e-9 {
			return fmt.Errorf("rank clock advanced %f s, want 10", got)
		}
		return nil
	})
	if math.Abs(rep.Makespan-10.0) > 0.1 {
		t.Fatalf("makespan = %f, want ~10", rep.Makespan)
	}
}

func TestFilterBatchShortCircuitSavesCost(t *testing.T) {
	reg := newTestRegistry(t)
	runWorld(t, 1, func(r *mpp.Rank) error {
		prof := udf.NewProfiler()
		// gt10 rejects 0..10, so expensiveTrue must only run for the
		// 9 surviving rows when ordered cheap-first.
		e := &expr.And{Children: []expr.Expr{call("gt10"), call("expensiveTrue")}}
		in, res := numBatch(0, 20)
		t0 := r.Now()
		_, _, err := FilterBatch(r, in, e, reg, prof, res, FilterOpts{}, NewArena())
		if err != nil {
			return err
		}
		if got := prof.Get("expensiveTrue").Execs; got != 9 {
			return fmt.Errorf("expensive UDF ran %d times, want 9", got)
		}
		if got, want := r.Now()-t0, 20*0.01+9*1.0; math.Abs(got-want) > 1e-9 {
			return fmt.Errorf("rank clock advanced %f s, want %f", got, want)
		}
		return nil
	})
}

func TestFilterBatchReorderingMovesCheapFirst(t *testing.T) {
	reg := newTestRegistry(t)
	runWorld(t, 1, func(r *mpp.Rank) error {
		prof := udf.NewProfiler()
		// Warm the profile so the optimizer knows the costs.
		record(prof, "gt10", 0.01, true)
		record(prof, "expensiveTrue", 1.0, false)
		// Expensive first in the written query.
		e := &expr.And{Children: []expr.Expr{call("expensiveTrue"), call("gt10")}}
		in, res := numBatch(0, 20)
		_, stats, err := FilterBatch(r, in, e, reg, prof, res, FilterOpts{Reorder: true}, NewArena())
		if err != nil {
			return err
		}
		// With reordering the cheap gt10 runs first; expensiveTrue only
		// on survivors (9 of 20) plus the warmup record.
		if got := prof.Get("expensiveTrue").Execs - 1; got != 9 {
			return fmt.Errorf("expensive execs = %d, want 9", got)
		}
		if len(stats.Chain) != 2 || stats.Chain[0].String() != "gt10(?v)" {
			return fmt.Errorf("order = %v", stats.Chain)
		}
		return nil
	})
}

func TestFilterBatchErrorRowsDropped(t *testing.T) {
	reg := udf.NewRegistry()
	_ = reg.Register("failOdd", func(args []expr.Value) (expr.Value, error) {
		if int(args[0].Num)%2 == 1 {
			return expr.Null, errors.New("odd input")
		}
		return expr.Bool(true), nil
	})
	runWorld(t, 1, func(r *mpp.Rank) error {
		prof := udf.NewProfiler()
		in, res := numBatch(0, 10)
		out, stats, err := FilterBatch(r, in, call("failOdd"), reg, prof, res, FilterOpts{}, NewArena())
		if err != nil {
			return err
		}
		if out.Len() != 5 || stats.Evaluated != 10 {
			return fmt.Errorf("passed=%d evaluated=%d, want 5 of 10", out.Len(), stats.Evaluated)
		}
		// Errored evaluations count as rejections in the profile.
		if prof.Get("failOdd").Rejections != 5 {
			return fmt.Errorf("rejections = %d", prof.Get("failOdd").Rejections)
		}
		return nil
	})
}

func TestFilterBatchWithRebalance(t *testing.T) {
	reg := newTestRegistry(t)
	counts := make([]int, 4)
	in, res := numBatch(100, 80) // one dictionary: the rows migrate as its IDs
	runWorld(t, 4, func(r *mpp.Rank) error {
		mine := in
		if r.ID() != 0 {
			mine = NewBatch("v")
		}
		_, stats, err := FilterBatch(r, mine, call("gt10"), reg, udf.NewProfiler(), res, FilterOpts{Rebalance: RebalanceCount}, NewArena())
		if err != nil {
			return err
		}
		if stats.Passed != stats.Evaluated {
			return fmt.Errorf("rank %d: stats %+v; every migrated row is > 10", r.ID(), stats)
		}
		counts[r.ID()] = stats.Evaluated
		return nil
	})
	for i, c := range counts {
		if c != 20 {
			t.Fatalf("rank %d evaluated %d rows, want 20: %v", i, c, counts)
		}
	}
}

// TransferPlan computes a deterministic redistribution matrix:
// plan[from][to] rows move from surplus ranks to deficit ranks, both
// walked in rank order. All ranks compute the identical plan from the
// same inputs. O(P^2) memory — use SendRow inside rank bodies, where
// P copies of the matrix would not fit.
func TransferPlan(current, target []int) [][]int {
	p := len(current)
	plan := make([][]int, p)
	for i := range plan {
		plan[i] = make([]int, p)
	}
	walkTransfers(current, target, func(src, dst, n int) {
		plan[src][dst] += n
	})
	return plan
}
