package ids

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ids/internal/expr"
)

// updateGolden rewrites testdata/clock_golden.json from the current
// tree. The committed file was captured at the all-gather parent of the
// root-gather refactor (DESIGN.md §9), so a green run proves the
// simulated clock and the communication ledger did not notice it.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/clock_golden.json")

// clockGolden is one query's simulated-time fingerprint. encoding/json
// renders float64 in the shortest form that round-trips, so equality
// after decoding is bit-equality.
type clockGolden struct {
	Query       string             `json:"query"`
	Rows        int                `json:"rows"`
	Makespan    float64            `json:"makespan"`
	Phases      map[string]float64 `json:"phases"`
	Collectives int64              `json:"collectives"`
	Bytes       int64              `json:"bytes"`
}

// clockQueries is the equivalence corpus plus BINDs and post-filters
// that call a costed UDF: the only finalize stages that charge the
// virtual clock, so the only place a root-only finalize could drift.
func clockQueries() []string {
	return append(append([]string(nil), equivQueries...),
		`SELECT ?s ?h WHERE { ?s <http://x/score> ?v . BIND(x.half(?v) AS ?h) } ORDER BY ?s`,
		`SELECT ?s ?h WHERE { ?s <http://x/score> ?v . BIND(x.half(?v) AS ?h) FILTER(x.half(?h) > 5) }`,
		`SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s <http://x/tag> ?t . ?s <http://x/score> ?v . BIND(x.half(?v) AS ?h) FILTER(?h > 3) } GROUP BY ?t ORDER BY ?t`,
	)
}

func registerHalf(t *testing.T, e *Engine) {
	t.Helper()
	err := e.Reg.RegisterWithCost("x.half",
		func(args []expr.Value) (expr.Value, error) {
			if len(args) != 1 || args[0].Kind != expr.KindFloat {
				return expr.Null, fmt.Errorf("x.half(number)")
			}
			return expr.Float(args[0].Num / 2), nil
		},
		// Not representable in binary and different per row, so any
		// re-association of the clock's additions shows in the low bits.
		func(args []expr.Value) float64 { return 0.0137 + args[0].Num*1e-5 },
	)
	if err != nil {
		t.Fatal(err)
	}
}

// TestEquivClockGolden replays the corpus on a fresh engine at 1, 2
// and 4 ranks and compares every report with the golden capture, bit
// for bit. (The keys keep the "columnar/" prefix they were captured
// under, when a row engine had keys beside them.)
func TestEquivClockGolden(t *testing.T) {
	got := map[string][]clockGolden{}
	for _, ranks := range []int{1, 2, 4} {
		e := equivEngine(t, ranks)
		registerHalf(t, e)
		key := fmt.Sprintf("columnar/ranks=%d", ranks)
		for _, q := range clockQueries() {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("%s: %q: %v", key, q, err)
			}
			got[key] = append(got[key], clockGolden{
				Query: q, Rows: len(res.Rows),
				Makespan: res.Report.Makespan, Phases: res.Report.Phases,
				Collectives: res.Report.Comm.Collectives, Bytes: res.Report.Comm.Bytes,
			})
		}
	}
	path := filepath.Join("testdata", "clock_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string][]clockGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d engine/rank keys, run produced %d", len(want), len(got))
	}
	for key, ws := range want {
		gs := got[key]
		if len(gs) != len(ws) {
			t.Fatalf("%s: golden has %d queries, run produced %d", key, len(ws), len(gs))
		}
		for i := range ws {
			if !reflect.DeepEqual(gs[i], ws[i]) {
				t.Errorf("%s: %q\n got  %+v\n want %+v", key, ws[i].Query, gs[i], ws[i])
			}
		}
	}
}
