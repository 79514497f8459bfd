package obs

import (
	"strings"
	"testing"
	"time"
)

func TestBuildTraceZipsRanks(t *testing.T) {
	r0 := NewRankRecorder(0)
	r1 := NewRankRecorder(1)
	r0.Record(OpSample{Op: "scan", Label: "?s ?p ?o", RowsOut: 10, VT: 1.0, Wall: 0.001})
	r1.Record(OpSample{Op: "scan", Label: "?s ?p ?o", RowsOut: 30, VT: 3.0, Wall: 0.002})
	r0.Record(OpSample{Op: "filter", RowsIn: 10, RowsOut: 4, VT: 2.0, Note: "order: a AND b"})
	r1.Record(OpSample{Op: "filter", RowsIn: 30, RowsOut: 6, VT: 2.0, Note: "order: a AND b"})

	tr := BuildTrace("q1", "SELECT", time.Now(), []*RankRecorder{r0, r1}, true)
	if len(tr.Ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(tr.Ops))
	}
	scan := tr.Ops[0]
	if scan.RowsOut != 40 || scan.VTMax != 3.0 || scan.VTMin != 1.0 || scan.VTMean != 2.0 {
		t.Fatalf("scan aggregate wrong: %+v", scan)
	}
	if scan.Skew != 1.5 {
		t.Fatalf("skew = %v, want 1.5", scan.Skew)
	}
	if len(scan.Ranks) != 2 || scan.Ranks[1].RowsOut != 30 {
		t.Fatalf("per-rank samples wrong: %+v", scan.Ranks)
	}
	filter := tr.Ops[1]
	if filter.RowsIn != 40 || filter.RowsOut != 10 || filter.Note != "order: a AND b" {
		t.Fatalf("filter aggregate wrong: %+v", filter)
	}
}

// TestBuildTraceRootOnlyOps pins the post-gather contract: the gather
// root's recorder carries the bind/aggregate samples no other rank has,
// and they reach the trace counted once, not dropped with the common
// prefix and not multiplied by the rank count.
func TestBuildTraceRootOnlyOps(t *testing.T) {
	r0 := NewRankRecorder(0)
	r1 := NewRankRecorder(1)
	r0.Record(OpSample{Op: "gather", RowsIn: 3, RowsOut: 7, VT: 1.0})
	r1.Record(OpSample{Op: "gather", RowsIn: 4, VT: 3.0})
	r0.Record(OpSample{Op: "aggregate", RowsIn: 7, RowsOut: 2, VT: 0.5, AllocBytes: 64, Mallocs: 3})
	tr := BuildTrace("q2", "", time.Now(), []*RankRecorder{r0, r1}, true)
	if len(tr.Ops) != 2 {
		t.Fatalf("ops = %d, want gather and aggregate", len(tr.Ops))
	}
	if g := tr.Ops[0]; g.RowsIn != 7 || g.RowsOut != 7 || g.VTMean != 2.0 {
		t.Fatalf("gather aggregate wrong: %+v", g)
	}
	agg := tr.Ops[1]
	if agg.Op != "aggregate" || agg.RowsIn != 7 || agg.RowsOut != 2 || agg.AllocBytes != 64 || agg.Mallocs != 3 {
		t.Fatalf("root-only aggregate wrong: %+v", agg)
	}
	if agg.VTMax != 0.5 || agg.VTMin != 0.5 || agg.VTMean != 0.5 || agg.Skew != 1 {
		t.Fatalf("root-only aggregate clock stats wrong: %+v", agg)
	}
	if len(agg.Ranks) != 1 || agg.Ranks[0].Rank != 0 {
		t.Fatalf("root-only aggregate ranks = %+v, want rank 0 alone", agg.Ranks)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var rr *RankRecorder
	rr.Record(OpSample{Op: "scan"}) // must not panic
}

func TestTraceIDsUnique(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b || a == "" {
		t.Fatalf("trace ids not unique: %q %q", a, b)
	}
}

func TestRenderContainsOperatorsAndRanks(t *testing.T) {
	r0 := NewRankRecorder(0)
	r1 := NewRankRecorder(1)
	r0.Record(OpSample{Op: "scan", Label: "?p a up:Protein", RowsOut: 5, VT: 0.5})
	r1.Record(OpSample{Op: "scan", Label: "?p a up:Protein", RowsOut: 7, VT: 0.7})
	tr := BuildTrace("q9", "SELECT ?p", time.Now(), []*RankRecorder{r0, r1}, true)
	tr.Makespan = 0.7
	tr.Rows = 12
	tr.Phases = map[string]float64{"scan": 0.7}

	var sb strings.Builder
	tr.Render(&sb, true)
	out := sb.String()
	for _, want := range []string{"EXPLAIN ANALYZE q9", "scan", "rank 0", "rank 1", "12 rows returned", "vt-max(s)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}
