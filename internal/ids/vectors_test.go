package ids

import (
	"math"
	"testing"

	"ids/internal/dict"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/vecstore"
)

func vectorEngine(t *testing.T) *Engine {
	t.Helper()
	g := kg.New(2)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	smiles := map[string]string{
		"aspirin":   "CC(=O)Oc1ccccc1C(=O)O",
		"salicylic": "OC(=O)c1ccccc1O",
		"hexane":    "CCCCCC",
	}
	for name, smi := range smiles {
		g.Add(iri("http://x/"+name), iri("http://x/smiles"), lit(smi))
	}
	g.Seal()
	e, err := NewEngine(g, mpp.Topology{Nodes: 1, RanksPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Synthetic fingerprints: salicylic acid shares most of aspirin's
	// bits, hexane none of them.
	fps := map[string][]float32{
		"aspirin":   {1, 1, 1, 0},
		"salicylic": {1, 1, 0, 0},
		"hexane":    {0, 0, 0, 1},
	}
	vs, err := vecstore.New(4, vecstore.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range fps {
		if err := vs.Add(name, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AttachVectors("fp", vs); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestVectorSearchAPI(t *testing.T) {
	e := vectorEngine(t)
	hits, err := e.VectorSearch("fp", "aspirin", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].Key != "aspirin" || hits[1].Key != "salicylic" {
		t.Fatalf("hits = %v", hits)
	}
	if _, err := e.VectorSearch("nope", "aspirin", 1); err == nil {
		t.Fatal("unknown store accepted")
	}
	if _, err := e.VectorSearch("fp", "ghost", 1); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestVectorSimUDF(t *testing.T) {
	e := vectorEngine(t)
	// aspirin should be more similar to salicylic acid than hexane.
	res, err := e.Query(`
		SELECT ?c ?s WHERE {
			?c <http://x/smiles> ?s .
			FILTER(fp.sim("aspirin", "salicylic") > fp.sim("aspirin", "hexane"))
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // condition is row-independent: all pass
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestVectorNearUDF(t *testing.T) {
	e := vectorEngine(t)
	res, err := e.Query(`
		SELECT ?c WHERE {
			?c <http://x/smiles> ?s .
			FILTER(fp.near("aspirin", "salicylic", 2))
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	res, err = e.Query(`
		SELECT ?c WHERE {
			?c <http://x/smiles> ?s .
			FILTER(fp.near("aspirin", "hexane", 2))
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("hexane in top-2 of aspirin: %d rows", len(res.Rows))
	}
}

func TestAttachVectorsValidation(t *testing.T) {
	e := vectorEngine(t)
	if err := e.AttachVectors("fp2", nil); err == nil {
		t.Fatal("nil store accepted")
	}
	vs, _ := vecstore.New(4, vecstore.Cosine)
	if err := e.AttachVectors("fp", vs); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestCosineHelper(t *testing.T) {
	if c := cosine([]float32{1, 0}, []float32{1, 0}); math.Abs(c-1) > 1e-9 {
		t.Fatalf("cosine identical = %f", c)
	}
	if c := cosine([]float32{1, 0}, []float32{0, 1}); math.Abs(c) > 1e-9 {
		t.Fatalf("cosine orthogonal = %f", c)
	}
	if c := cosine([]float32{0, 0}, []float32{1, 0}); c != 0 {
		t.Fatalf("cosine zero vector = %f", c)
	}
}
