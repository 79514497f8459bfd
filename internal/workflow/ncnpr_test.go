package workflow

import (
	"fmt"
	"testing"

	"ids/internal/cache"
	"ids/internal/ids"
	"ids/internal/mpp"
	"ids/internal/store"
	"ids/internal/synth"
)

func smallDataset(t *testing.T, shards int) *synth.Dataset {
	t.Helper()
	cfg := synth.NCNPRConfig{
		Seed:   5,
		Shards: shards,
		SeqLen: 100,
		Tiers: []synth.SimTier{
			{Lo: 0.995, Hi: 1.01, Proteins: 2, CompoundsPerProtein: 2}, // 4
			{Lo: 0.30, Hi: 0.60, Proteins: 2, CompoundsPerProtein: 3},  // +6
		},
		BackgroundProteins: 15,
		UnreviewedProteins: 5,
	}
	ds, err := synth.BuildNCNPR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func newWorkflow(t *testing.T, ranks int, withCache bool) *Workflow {
	t.Helper()
	ds := smallDataset(t, ranks)
	e, err := ids.NewEngine(ds.Graph, mpp.Topology{Nodes: 2, RanksPerNode: ranks / 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DockSteps = 50
	var gc *cache.Cache
	if withCache {
		backing, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		gc, err = cache.New(cache.DefaultConfig(), backing)
		if err != nil {
			t.Fatal(err)
		}
	}
	w, err := New(e, ds, cfg, gc)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkflowHighThreshold(t *testing.T) {
	w := newWorkflow(t, 4, false)
	rr, err := w.Run(0.99)
	if err != nil {
		t.Fatal(err)
	}
	// Only tier-0 compounds (4) survive an 0.99 SW threshold; DTBA may
	// trim a few, so bound rather than pin.
	if rr.InnerRows == 0 || rr.InnerRows > 4 {
		t.Fatalf("inner rows = %d, want 1..4", rr.InnerRows)
	}
	if len(rr.Candidates) != rr.InnerRows {
		t.Fatalf("docked %d of %d candidates", len(rr.Candidates), rr.InnerRows)
	}
	for _, c := range rr.Candidates {
		if c.Affinity >= 0 {
			t.Fatalf("candidate %s affinity %f not favorable", c.Compound, c.Affinity)
		}
		if c.Cached {
			t.Fatal("cached hit without a cache")
		}
	}
	// Docking dominates end-to-end time (paper Fig 4).
	if rr.Report.PhaseMax("dock") < rr.NonDockTime() {
		t.Fatalf("dock %f < non-dock %f; docking should dominate",
			rr.Report.PhaseMax("dock"), rr.NonDockTime())
	}
}

func TestWorkflowThresholdMonotone(t *testing.T) {
	w := newWorkflow(t, 4, false)
	hi, err := w.Run(0.99)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := w.Run(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if lo.InnerRows < hi.InnerRows {
		t.Fatalf("lower threshold returned fewer rows: %d vs %d", lo.InnerRows, hi.InnerRows)
	}
	if lo.TotalTime() < hi.TotalTime() {
		t.Fatalf("more candidates but less time: %f vs %f", lo.TotalTime(), hi.TotalTime())
	}
}

func TestWorkflowCacheSpeedsRepeats(t *testing.T) {
	w := newWorkflow(t, 4, true)
	first, err := w.Run(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHits != 0 || first.CacheMisses != len(first.Candidates) {
		t.Fatalf("first run hits=%d misses=%d", first.CacheHits, first.CacheMisses)
	}
	second, err := w.Run(0.25)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheMisses != 0 || second.CacheHits != len(second.Candidates) {
		t.Fatalf("second run hits=%d misses=%d", second.CacheHits, second.CacheMisses)
	}
	// The paper reports 5-15x end-to-end improvement from the cache.
	speedup := first.TotalTime() / second.TotalTime()
	if speedup < 2 {
		t.Fatalf("cache speedup = %.2fx, want well above 1", speedup)
	}
	// A narrower repeat reuses the overlapping candidate set.
	narrower, err := w.Run(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if narrower.CacheMisses != 0 {
		t.Fatalf("subset query missed %d times", narrower.CacheMisses)
	}
}

func TestWorkflowDeterministicAffinities(t *testing.T) {
	w1 := newWorkflow(t, 4, false)
	w2 := newWorkflow(t, 4, false)
	a, err := w1.Run(0.99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w2.Run(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			t.Fatalf("candidate %d differs: %+v vs %+v", i, a.Candidates[i], b.Candidates[i])
		}
	}
}

func TestWorkflowScalingShape(t *testing.T) {
	// Non-docking time should shrink with more ranks (Fig 4a's
	// "excluding docking" series): same dataset sharded 4 vs 8 ways.
	run := func(ranks int) float64 {
		w := newWorkflow(t, ranks, false)
		rr, err := w.Run(0.25)
		if err != nil {
			t.Fatal(err)
		}
		return rr.Report.PhaseMax("filter")
	}
	small := run(4)
	big := run(8)
	if big >= small {
		t.Fatalf("filter time did not scale: %f @4 ranks vs %f @8 ranks", small, big)
	}
}

func TestAffinityScheduling(t *testing.T) {
	// With affinity on, repeated runs fetch artifacts node-locally,
	// so the simulated time is never worse than round-robin and the
	// results are identical.
	mkRun := func(affinity bool) (*RunResult, *RunResult) {
		w := newWorkflow(t, 4, true)
		w.Cfg.AffinitySchedule = affinity
		cold, err := w.Run(0.25)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := w.Run(0.25)
		if err != nil {
			t.Fatal(err)
		}
		return cold, warm
	}
	_, rrWarm := mkRun(false)
	_, afWarm := mkRun(true)
	if len(rrWarm.Candidates) != len(afWarm.Candidates) {
		t.Fatalf("affinity changed results: %d vs %d", len(rrWarm.Candidates), len(afWarm.Candidates))
	}
	if afWarm.CacheMisses != 0 {
		t.Fatalf("affinity run missed %d times", afWarm.CacheMisses)
	}
	if afWarm.TotalTime() > rrWarm.TotalTime()*1.05 {
		t.Fatalf("affinity scheduling slower: %f vs %f", afWarm.TotalTime(), rrWarm.TotalTime())
	}
}

func TestUDFArgumentValidation(t *testing.T) {
	w := newWorkflow(t, 4, false)
	reg := w.Engine.Reg
	// Each workflow UDF rejects wrong arities/kinds.
	if _, _, err := reg.CallUDF("ncnpr.sw", nil); err == nil {
		t.Fatal("sw() accepted no args")
	}
	if _, _, err := reg.CallUDF("ncnpr.pic50", nil); err == nil {
		t.Fatal("pic50() accepted no args")
	}
	if _, _, err := reg.CallUDF("ncnpr.dtba", nil); err == nil {
		t.Fatal("dtba() accepted no args")
	}
}

func TestPIC50Helper(t *testing.T) {
	if p := pic50(1); p != 9 {
		t.Fatalf("pic50(1nM) = %f", p)
	}
	if p := pic50(0); p != 0 {
		t.Fatalf("pic50(0) = %f", p)
	}
	if p := pic50(-1); p != 0 {
		t.Fatalf("pic50(-1) = %f", p)
	}
}

func TestParseAffinityCorrupt(t *testing.T) {
	if _, err := parseAffinity([]byte("not-a-number")); err == nil {
		t.Fatal("corrupt artifact accepted")
	}
	v, err := parseAffinity(formatAffinity(-7.25))
	if err != nil || v != -7.25 {
		t.Fatalf("round trip = %f, %v", v, err)
	}
}

func TestLigandForInvalidSMILES(t *testing.T) {
	if _, err := ligandFor("not(((smiles"); err == nil {
		t.Fatal("invalid SMILES embedded")
	}
}

func TestWorstFirstQueryStructure(t *testing.T) {
	w := newWorkflow(t, 4, false)
	q := w.InnerQueryWorstFirst(0.5)
	// DTBA must appear before pic50 in the worst-first rendering.
	di := indexOf(q, "ncnpr.dtba")
	pi := indexOf(q, "ncnpr.pic50")
	if di < 0 || pi < 0 || di > pi {
		t.Fatalf("worst-first ordering wrong (dtba@%d pic50@%d)", di, pi)
	}
	// And it still runs.
	rr, err := w.RunQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if rr.InnerRows == 0 {
		t.Fatal("worst-first query returned nothing")
	}
}

func TestInnerQueryParses(t *testing.T) {
	w := newWorkflow(t, 4, false)
	q := w.InnerQuery(0.9)
	for _, want := range []string{"ncnpr.sw", "ncnpr.pic50", "ncnpr.dtba", "0.9"} {
		if !contains(q, want) {
			t.Fatalf("inner query missing %q:\n%s", want, q)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestRunQueryUnderUpdates runs the workflow while INSERT DATA
// statements mutate the graph: the inner query and its docking stage
// hold the engine read lock for the whole world, so under -race no
// access to the graph is unsynchronized.
func TestRunQueryUnderUpdates(t *testing.T) {
	w := newWorkflow(t, 4, false)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 50; i++ {
			u := fmt.Sprintf(`INSERT DATA { <http://x/s%d> <http://x/note> "v%d" . }`, i, i)
			if _, err := w.Engine.Update(u); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 3; i++ {
		if _, err := w.Run(0.5); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRunQueryIsObserved checks that the §4 query, docking included,
// is an ordinary query to the engine's metrics and insights.
func TestRunQueryIsObserved(t *testing.T) {
	w := newWorkflow(t, 4, false)
	rr, err := w.Run(0.5)
	if err != nil {
		t.Fatal(err)
	}
	reg := w.Engine.Metrics()
	if v := reg.Counter("ids_queries_total").Value(); v != 1 {
		t.Fatalf("ids_queries_total = %v, want 1", v)
	}
	dock := rr.Report.Phases["dock"]
	if dock <= 0 {
		t.Fatalf("report has no docking phase: %v", rr.Report.Phases)
	}
	if v := reg.Counter("ids_phase_vt_seconds_total", "phase", "dock").Value(); v != dock {
		t.Fatalf(`ids_phase_vt_seconds_total{phase="dock"} = %v, want %v`, v, dock)
	}
	top := w.Engine.Insights().TopK(1)
	if len(top) != 1 || top[0].Count != 1 {
		t.Fatalf("insights top fingerprints = %+v, want one with count 1", top)
	}
}
