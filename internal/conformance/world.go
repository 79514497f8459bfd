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
	"strconv"

	"ids/internal/conformance/ref"
	"ids/internal/dict"
	"ids/internal/ids"
	"ids/internal/kg"
	"ids/internal/mpp"
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
	w := &ref.World{UDFs: e.Reg, Vectors: map[string]*vecstore.Store{VecSpace: vs}}
	g.Triples(func(s, p, o dict.Term) bool {
		w.Triples = append(w.Triples, ref.Triple{S: s, P: p, O: o})
		return true
	})
	return &World{Ranks: ranks, Engine: e, Ref: w}, nil
}
