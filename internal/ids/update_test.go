package ids

import (
	"maps"
	"net/http/httptest"
	"testing"

	"ids/internal/dict"
)

func TestUpdateInsertData(t *testing.T) {
	e := newEngine(t, 4)
	before := e.Graph.Len()
	res, err := e.Update(`INSERT DATA {
		<http://x/hopper> <http://x/name> "grace hopper" .
		<http://x/hopper> <http://x/age> "85" .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 2 || res.Total != 2 || res.Kind != "INSERT DATA" {
		t.Fatalf("res = %+v", res)
	}
	if e.Graph.Len() != before+2 {
		t.Fatalf("graph len %d, want %d", e.Graph.Len(), before+2)
	}
	q, err := e.Query(`SELECT ?n WHERE { <http://x/hopper> <http://x/name> ?n . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 1 || e.Strings(q)[0][0] != `"grace hopper"` {
		t.Fatalf("query after insert = %v", e.Strings(q))
	}
	// Duplicate insert is a no-op.
	res, err = e.Update(`INSERT DATA { <http://x/hopper> <http://x/name> "grace hopper" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 {
		t.Fatalf("duplicate applied = %d", res.Applied)
	}
}

func TestUpdateDeleteData(t *testing.T) {
	e := newEngine(t, 4)
	res, err := e.Update(`DELETE DATA { <http://x/ada> <http://x/age> "36" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("res = %+v", res)
	}
	q, err := e.Query(`SELECT ?a WHERE { <http://x/ada> <http://x/age> ?a . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 0 {
		t.Fatalf("deleted triple still matches: %v", e.Strings(q))
	}
	// Deleting an absent triple applies nothing.
	res, err = e.Update(`DELETE DATA { <http://x/ada> <http://x/age> "999" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 0 {
		t.Fatalf("absent delete applied = %d", res.Applied)
	}
}

func TestUpdateWithPrefixes(t *testing.T) {
	e := newEngine(t, 2)
	_, err := e.Update(`
		PREFIX x: <http://x/>
		INSERT DATA { x:newbie x:name "n" . }`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := e.Query(`SELECT ?n WHERE { <http://x/newbie> <http://x/name> ?n . }`)
	if err != nil || len(q.Rows) != 1 {
		t.Fatalf("prefixed insert invisible: %v, %v", q, err)
	}
}

func TestUpdateParseErrors(t *testing.T) {
	e := newEngine(t, 2)
	bad := []string{
		``,
		`INSERT { <http://x/a> <http://x/b> "c" . }`,
		`INSERT DATA { }`,
		`INSERT DATA { ?v <http://x/b> "c" . }`,
		`INSERT DATA { <http://x/a> <http://x/b> "c" . } trailing`,
		`UPSERT DATA { <http://x/a> <http://x/b> "c" . }`,
		`INSERT DATA { <http://x/a> "lit-predicate" "c" . }`,
	}
	for _, u := range bad {
		if _, err := e.Update(u); err == nil {
			t.Errorf("Update(%q) succeeded", u)
		}
	}
}

func TestUpdateOverHTTP(t *testing.T) {
	e := newEngine(t, 2)
	srv := NewServerConfig(e, ServerConfig{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	res, err := c.Update(`INSERT DATA { <http://x/z> <http://x/name> "zeta" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 {
		t.Fatalf("res = %+v", res)
	}
	if _, err := c.Update(`garbage`); err == nil {
		t.Fatal("bad update accepted over HTTP")
	}
	q, err := c.Query(`SELECT ?n WHERE { <http://x/z> <http://x/name> ?n . }`)
	if err != nil || len(q.Rows) != 1 {
		t.Fatalf("query after remote update: %v, %v", q, err)
	}
}

// TestStatsFollowUpdates: the planner's statistics are a recount of
// the graph after every applied statement, live and on WAL replay. The
// insert brings a predicate the statistics have never seen; the delete
// removes the last triples of another, whose entry must go.
func TestStatsFollowUpdates(t *testing.T) {
	check := func(step string, e *Engine) {
		t.Helper()
		total, preds := 0, map[dict.ID]int{}
		e.Graph.Triples(func(s, p, o dict.Term) bool {
			id, ok := e.Graph.Dict.Lookup(p)
			if !ok {
				t.Fatalf("%s: predicate %v not in the dictionary", step, p)
			}
			total++
			preds[id]++
			return true
		})
		st := e.stats.Load()
		if st.Total != total || !maps.Equal(st.Predicates, preds) {
			t.Fatalf("%s: stats = %d %v, recount = %d %v", step, st.Total, st.Predicates, total, preds)
		}
	}
	dir := t.TempDir()
	inst := launchDurable(t, LaunchConfig{Graph: peopleGraph(2), Durability: durCfg(dir)})
	defer inst.Teardown()
	check("launch", inst.Engine)
	for _, u := range []string{
		`INSERT DATA { <http://x/ada> <http://x/brandNew> "v" . }`,
		`DELETE DATA { <http://x/ada> <http://x/knows> <http://x/grace> .
		               <http://x/grace> <http://x/knows> <http://x/alan> . }`,
	} {
		res, err := inst.Engine.Update(u)
		if err != nil || res.Applied != res.Total {
			t.Fatalf("%s: %+v, %v", u, res, err)
		}
		check(u, inst.Engine)
	}
	// The copied directory holds the seed checkpoint plus both records,
	// so the relaunch rebuilds the graph through WAL replay.
	inst2 := launchDurable(t, LaunchConfig{Durability: durCfg(copyDir(t, dir))})
	defer inst2.Teardown()
	if inst2.Recovery.ReplayedRecords != 2 {
		t.Fatalf("recovery = %+v", inst2.Recovery)
	}
	check("replay", inst2.Engine)
}
