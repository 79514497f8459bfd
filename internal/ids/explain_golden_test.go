package ids

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ids/internal/obs"
)

// explainQueries is the clock corpus plus two pre-gather FILTER chains
// that call a costed UDF beside a comparison, one of them between
// joins: the clock corpus calls UDFs only after the gather.
func explainQueries() []string {
	return append(clockQueries(),
		`SELECT ?s ?v WHERE { ?s <http://x/score> ?v . FILTER(x.half(?v) > 10 && ?v < 80) }`,
		`SELECT ?a ?t WHERE { ?a <http://x/links> ?b . ?b <http://x/score> ?v . FILTER(?v > 20 && x.half(?v) < 40) ?a <http://x/tag> ?t . }`,
	)
}

// maskTrace zeroes what a trace measures rather than simulates — wall
// and CPU seconds, heap bytes and objects, the lifecycle spans — and
// the trace ID, leaving the operator tree, its cardinalities, notes
// and virtual-clock columns.
func maskTrace(tr *obs.QueryTrace) {
	tr.ID = "q"
	tr.ParseSeconds, tr.PlanSeconds, tr.ExecSeconds, tr.WallSeconds = 0, 0, 0, 0
	if r := tr.Resources; r != nil {
		*r = obs.ResourceUsage{}
	}
	for i := range tr.Ops {
		op := &tr.Ops[i]
		op.WallMax, op.CPUSeconds, op.AllocBytes, op.Mallocs = 0, 0, 0, 0
		for j := range op.Ranks {
			rk := &op.Ranks[j]
			rk.Wall, rk.AllocBytes, rk.Mallocs = 0, 0, 0
		}
	}
}

// TestExplainAnalyzeGolden pins the masked EXPLAIN ANALYZE text (per-rank
// lines included) of every explainQueries query at 1, 2 and 4 ranks:
// operator order, labels, notes, rows and virtual seconds. Regenerate
// with -update-golden only when a change is meant to move them.
func TestExplainAnalyzeGolden(t *testing.T) {
	var sb strings.Builder
	for _, ranks := range []int{1, 2, 4} {
		e := equivEngine(t, ranks)
		registerHalf(t, e)
		for _, q := range explainQueries() {
			res, err := e.QueryTraced(q)
			if err != nil {
				t.Fatalf("ranks=%d: %q: %v", ranks, q, err)
			}
			maskTrace(res.Trace)
			fmt.Fprintf(&sb, "=== ranks=%d %s\n", ranks, q)
			res.Trace.Render(&sb, true)
		}
	}
	got := sb.String()
	path := filepath.Join("testdata", "explain_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.SplitAfter(string(data), "\n=== ")
	for i, g := range strings.SplitAfter(got, "\n=== ") {
		if i >= len(want) || g != want[i] {
			w := "<missing>"
			if i < len(want) {
				w = want[i]
			}
			t.Fatalf("EXPLAIN ANALYZE section %d differs:\n--- got\n%s\n--- want\n%s", i, g, w)
		}
	}
	if len(want) != strings.Count(got, "\n=== ")+1 {
		t.Fatalf("golden has %d sections, run produced %d", len(want), strings.Count(got, "\n=== ")+1)
	}
}
