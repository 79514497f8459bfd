// Package conformance is the SPARQL conformance sweep: a seeded
// generator emits thousands of W3C-style queries over a deterministic
// synthetic knowledge graph, every query runs through parse → plan →
// execute on the engine and through the independent reference
// evaluator (internal/conformance/ref), and each outcome lands in a
// stable taxonomy bucket with a priority. The
// harness is the repo's answer to "which SPARQL do we actually speak,
// and how do we fail on the rest": CONFORMANCE.md is regenerated from
// it by `ids-bench -conformance`, and CI gates on the per-category
// success-rate table never regressing.
package conformance

import (
	"fmt"
	"math"
	"strconv"

	"ids/internal/conformance/ref"
	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/ids"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/udf"
	"ids/internal/vecstore"
	"ids/internal/vecstore/hnsw"
)

// World vocabulary. The generator only draws terms from this closed
// vocabulary, so every supported-feature query is answerable and every
// divergence from the reference is a real defect, not a data race
// with the generator.
const (
	// WorldEntities is the entity count; scores i*13 mod 101 are
	// pairwise distinct (101 is prime), which keeps ORDER BY ?score a
	// total order — LIMIT windows are then well-defined regardless of
	// hash-join emission order.
	WorldEntities = 48
	// WorldTags is the tag-literal alphabet size.
	WorldTags = 7

	PredTag   = "http://c/tag"
	PredScore = "http://c/score"
	PredDesc  = "http://c/desc"
	PredLinks = "http://c/links"
	PredAlt   = "http://c/alt"
	// VecSpace is the vector-store name SIMILAR queries reference.
	VecSpace = "fp"
)

// EntityIRI returns the IRI of entity i.
func EntityIRI(i int) string { return fmt.Sprintf("http://c/e%d", i%WorldEntities) }

// WorldGraph builds the deterministic synthetic KG: typed entities
// with literal attributes, a sparse link relation for join chains, a
// partially-duplicated alt-tag family for UNION and DISTINCT, and
// duplicate triples so DISTINCT has real work.
func WorldGraph(shards int) *kg.Graph {
	g := kg.New(shards)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	for i := 0; i < WorldEntities; i++ {
		s := iri(EntityIRI(i))
		g.Add(s, iri(PredTag), lit("tag"+strconv.Itoa(i%WorldTags)))
		g.Add(s, iri(PredScore), lit(strconv.Itoa(i*13%101)))
		if i%2 == 0 {
			g.Add(s, iri(PredDesc), lit(fmt.Sprintf("desc-%d", i)))
		}
		if i%3 == 0 {
			g.Add(s, iri(PredLinks), iri(EntityIRI(i+11)))
		}
		if i%4 == 0 {
			g.Add(s, iri(PredAlt), lit("tag"+strconv.Itoa(i%WorldTags)))
		}
	}
	for i := 0; i < 8; i++ {
		g.Add(iri(EntityIRI(i)), iri(PredTag), lit("tag0"))
	}
	g.Seal()
	return g
}

// World is a differential execution harness: the engine under test and
// the reference evaluator over the same graph and the same vector store.
type World struct {
	Ranks  int
	Engine *ids.Engine
	Ref    *ref.World
}

// NewWorld builds the pair over a ranks-shard world. The HNSW index is
// seeded, so SIMILAR answers are identical run to run, and the engine
// and the reference read one store instance.
func NewWorld(ranks int) (*World, error) {
	g := WorldGraph(ranks)
	e, err := ids.NewEngine(g, mpp.Topology{Nodes: 1, RanksPerNode: ranks})
	if err != nil {
		return nil, err
	}
	vs, err := vecstore.New(2, vecstore.L2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < WorldEntities; i++ {
		if err := vs.Add(EntityIRI(i), []float32{float32(i % 8), float32(i / 8)}); err != nil {
			return nil, err
		}
	}
	if err := vs.EnableHNSW(hnsw.Config{M: 4, EfConstruction: 32, Seed: 1}); err != nil {
		return nil, err
	}
	if err := e.AttachVectors(VecSpace, vs); err != nil {
		return nil, err
	}
	// The reference calls the same bodies through a registry of its own
	// that memoizes nothing, so a memo fault shows as a wrong answer.
	refUDFs := udf.NewRegistry()
	for _, reg := range []*udf.Registry{e.Reg, refUDFs} {
		if err := registerUDFs(reg, reg == e.Reg); err != nil {
			return nil, err
		}
	}
	w := &ref.World{UDFs: refUDFs, Vectors: map[string]*vecstore.Store{VecSpace: vs}}
	g.Triples(func(s, p, o dict.Term) bool {
		w.Triples = append(w.Triples, ref.Triple{S: s, P: p, O: o})
		return true
	})
	return &World{Ranks: ranks, Engine: e, Ref: w}, nil
}

// registerUDFs registers the udf category's functions over the world's
// literals (a number is itself, any other term its byte sum mod 101): a
// cheap numeric test, an expensive "model", one that errs on every
// multiple of three, and a dynamic one, which is never memoized. Their
// declared costs span three orders of magnitude. memo marks the static
// three pure.
func registerUDFs(reg *udf.Registry, memo bool) error {
	fns := []struct {
		name string
		cost float64
		fn   func(x float64) (expr.Value, error)
	}{
		{"u.tiny", 1e-6, func(x float64) (expr.Value, error) { return expr.Float(math.Mod(x, 7)), nil }},
		{"u.model", 2e-3, func(x float64) (expr.Value, error) { return expr.Float(math.Mod(x*37+11, 101) / 101), nil }},
		{"u.fragile", 4e-5, func(x float64) (expr.Value, error) {
			if math.Mod(x, 3) == 0 {
				return expr.Null, fmt.Errorf("conformance: u.fragile(%g)", x)
			}
			return expr.Bool(x > 40), nil
		}},
		{"dyn.live", 1e-5, func(x float64) (expr.Value, error) { return expr.Float(x + 1), nil }},
	}
	for _, f := range fns {
		body := func(args []expr.Value) (expr.Value, error) {
			if len(args) != 1 {
				return expr.Null, fmt.Errorf("conformance: %s takes one argument", f.name)
			}
			x := args[0].Num
			if args[0].Kind != expr.KindFloat {
				for _, c := range []byte(args[0].Str) {
					x += float64(c)
				}
				x = math.Mod(x, 101)
			}
			return f.fn(x)
		}
		cost := func([]expr.Value) float64 { return f.cost }
		var err error
		if f.name == "dyn.live" {
			err = reg.RegisterDynamic("dyn", "live", body, cost)
		} else if err = reg.RegisterWithCost(f.name, body, cost); err == nil && memo {
			err = reg.MarkPure(f.name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
