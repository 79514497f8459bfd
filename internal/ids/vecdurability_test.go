package ids

import (
	"fmt"
	"reflect"
	"testing"

	"ids/internal/vecstore"
)

// vecOf builds a small deterministic vector for index i.
func vecOf(i int, dim int) []float32 {
	v := make([]float32, dim)
	for d := range v {
		v[d] = float32((i*13+d*5)%17) - 8
	}
	return v
}

// TestVectorUpsertDurableRecovery drives vector upserts and triple
// updates through the HTTP surface of a durable instance — with a
// checkpoint in the middle, so recovery exercises both the vector
// snapshot (pre-checkpoint state) and WAL replay of KindVecUpsert
// records (post-checkpoint tail) — then crashes and requires the
// recovered engine to answer vector searches and hybrid SIMILAR
// queries exactly like the live one.
func TestVectorUpsertDurableRecovery(t *testing.T) {
	live := launchDurable(t, LaunchConfig{})
	defer live.Teardown()
	dir := t.TempDir()
	dur := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	defer dur.Teardown()

	insts := []*Instance{live, dur}
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("http://x/e%d", i%8) // i>=8 overwrites: upsert path
		for _, inst := range insts {
			if _, err := inst.Client().VectorUpsert("emb", key, vecOf(i, 6)); err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Engine.Update(fmt.Sprintf(
				`INSERT DATA { <%s> <http://x/tag> "tag%d" . }`, key, i%3)); err != nil {
				t.Fatal(err)
			}
		}
		if i == 5 {
			// The checkpoint folds the first half into the vectors
			// container; the second half stays in the WAL tail.
			if _, err := dur.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := dur.Engine.VectorUpsert("emb", "http://x/e0", vecOf(99, 6))
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 || res.Kind != "VECTOR UPSERT" {
		t.Fatalf("durable upsert result = %+v", res)
	}
	if _, err := live.Engine.VectorUpsert("emb", "http://x/e0", vecOf(99, 6)); err != nil {
		t.Fatal(err)
	}

	crash := copyDir(t, dir)
	rec := launchDurable(t, LaunchConfig{Durability: durCfg(crash)})
	defer rec.Teardown()

	// Exact brute-force probes: identical stores must return identical
	// results (Search never consults the approximate index).
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("http://x/e%d", i)
		lv, err := live.Engine.VectorSearch("emb", key, 5)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := rec.Engine.VectorSearch("emb", key, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lv, rv) {
			t.Fatalf("vector search %q diverged:\n live %v\n rec  %v", key, lv, rv)
		}
	}
	// The auto-created store keeps its metric across snapshot+replay.
	lm, err := live.Engine.VectorSearch("emb", "http://x/e1", 1)
	if err != nil || len(lm) == 0 {
		t.Fatalf("live search: %v %v", lm, err)
	}
	// Hybrid SIMILAR over the recovered store joins with replayed
	// triples identically on the live and the recovered engine.
	q := `SELECT ?s ?o WHERE { SIMILAR(?s, <http://x/e1>, 4, "emb") . ?s <http://x/tag> ?o . } ORDER BY ?s ?o`
	lr, err := live.Engine.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := rec.Engine.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Rows) == 0 || !reflect.DeepEqual(live.Engine.Strings(lr), rec.Engine.Strings(rr)) {
		t.Fatalf("hybrid query diverged:\n live %v\n rec  %v",
			live.Engine.Strings(lr), rec.Engine.Strings(rr))
	}
	if v := rec.Engine.Metrics().Counter("ids_vector_upserts_total").Value(); v <= 0 {
		t.Fatalf("ids_vector_upserts_total after recovery = %v", v)
	}
}

// TestVectorEndpointErrors pins the HTTP error mapping: a bad payload
// is the client's fault (400), a search against a missing store too.
func TestVectorEndpointErrors(t *testing.T) {
	e := knnEngine(t)
	s := NewServerConfig(e, ServerConfig{})
	c, done := clientFor(t, s)
	defer done()

	if _, err := c.VectorUpsert("", "k", []float32{1}); err == nil {
		t.Fatal("empty store accepted")
	}
	if _, err := c.VectorUpsert("fp", "k", []float32{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := c.VectorSearch("nope", "k", 3); err == nil {
		t.Fatal("unknown store accepted")
	}
	// A well-formed upsert against the live store works and is
	// immediately searchable.
	if _, err := c.VectorUpsert("fp", "http://x/new", []float32{2.5, 0}); err != nil {
		t.Fatal(err)
	}
	hits, err := c.VectorSearch("fp", "http://x/new", 1)
	if err != nil || len(hits) != 1 || hits[0].Key != "http://x/new" {
		t.Fatalf("search after upsert = %v, %v", hits, err)
	}
}

// TestVectorUpsertAutoCreatesStore exercises the first-touch path: no
// store attached, an upsert creates one with the Cosine default, and
// SIMILAR resolves it as the sole store.
func TestVectorUpsertAutoCreatesStore(t *testing.T) {
	e := newEngine(t, 2)
	if _, err := e.VectorUpsert("fresh", "http://x/ada", []float32{1, 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.VectorUpsert("fresh", "http://x/grace", []float32{0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(`SELECT ?s ?n WHERE { SIMILAR(?s, <http://x/ada>, 2) . ?s <http://x/name> ?n . } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Strings(res); len(got) != 2 {
		t.Fatalf("rows = %v", got)
	}
	// Dimension mismatch against the auto-created store is rejected.
	if _, err := e.VectorUpsert("fresh", "http://x/alan", []float32{1, 2, 3}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if vs := func() *vecstore.Store { e.mu.RLock(); defer e.mu.RUnlock(); return e.vectors["fresh"] }(); vs.Metric() != vecstore.Cosine {
		t.Fatalf("auto-created metric = %v", vs.Metric())
	}
}
