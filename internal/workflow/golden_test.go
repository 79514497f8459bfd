package workflow

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ids/internal/synth"
)

// updateGolden rewrites testdata/runquery_golden.json from the current
// tree. The committed file was captured at the all-gather parent of the
// root-gather refactor (DESIGN.md §9): RunQuery docks in a stage of
// the query's own world (Engine.QueryStage) and deals docking tasks
// from the table every rank gets back, so it is the caller that notices
// if ranks stop agreeing on the table or on the clock.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/runquery_golden.json")

type runGolden struct {
	Name       string             `json:"name"`
	InnerRows  int                `json:"inner_rows"`
	Candidates []Candidate        `json:"candidates"`
	Makespan   float64            `json:"makespan"`
	Phases     map[string]float64 `json:"phases"`
}

// bindQuery is the inner query with the potency UDF moved into a BIND,
// so the post-gather finalize charges the virtual clock before docking
// starts in the same world.
func bindQuery(w *Workflow, sw float64) string {
	return fmt.Sprintf(`
		PREFIX up: <%s>
		PREFIX ch: <%s>
		SELECT DISTINCT ?compound ?smiles ?p WHERE {
			?protein a up:Protein .
			?protein up:reviewed "true" .
			?protein up:sequence ?seq .
			FILTER(ncnpr.sw(?seq) >= %g)
			?compound ch:inhibits ?protein .
			?compound ch:smiles ?smiles .
			?compound ch:ic50 ?ic50 .
			BIND(ncnpr.pic50(?ic50) AS ?p)
			FILTER(?p > %g)
		}`, synth.NSUp, synth.NSChem, sw, w.Cfg.PIC50Threshold)
}

func TestRunPlanEmbeddedGolden(t *testing.T) {
	var got []runGolden
	for _, ranks := range []int{4, 8} {
		w := newWorkflow(t, ranks, false)
		for _, c := range []struct{ name, query string }{
			{"inner@0.99", w.InnerQuery(0.99)},
			{"inner@0.25", w.InnerQuery(0.25)},
			{"worst-first@0.5", w.InnerQueryWorstFirst(0.5)},
			{"bind@0.25", bindQuery(w, 0.25)},
		} {
			rr, err := w.RunQuery(c.query)
			if err != nil {
				t.Fatalf("%s ranks=%d: %v", c.name, ranks, err)
			}
			got = append(got, runGolden{
				Name:      fmt.Sprintf("%s/ranks=%d", c.name, ranks),
				InnerRows: rr.InnerRows, Candidates: rr.Candidates,
				Makespan: rr.Report.Makespan, Phases: rr.Report.Phases,
			})
		}
	}
	path := filepath.Join("testdata", "runquery_golden.json")
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
	var want []runGolden
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d runs, this run produced %d", len(want), len(got))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s\n got  %+v\n want %+v", want[i].Name, got[i], want[i])
		}
	}
}
