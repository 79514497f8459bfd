package synth

import (
	"fmt"
	"math/rand"

	"ids/internal/dict"
	"ids/internal/kg"
)

// Table1Source describes one of the paper's Table 1 RDF sources.
type Table1Source struct {
	Name string
	// PaperTriples is the triple count the paper reports.
	PaperTriples int64
	// TriplesPerEntity shapes the generated data: how many triples
	// each entity carries (mimicking each source's record shape).
	TriplesPerEntity int
}

// Table1Sources reproduces Table 1 of the paper.
func Table1Sources() []Table1Source {
	return []Table1Source{
		{Name: "UniProt", PaperTriples: 87_600_000_000, TriplesPerEntity: 12},
		{Name: "ChEMBL-RDF", PaperTriples: 539_000_000, TriplesPerEntity: 8},
		{Name: "Bio2RDF", PaperTriples: 11_500_000_000, TriplesPerEntity: 10},
		{Name: "OrthoDB", PaperTriples: 2_200_000_000, TriplesPerEntity: 6},
		{Name: "Biomodels", PaperTriples: 28_000_000, TriplesPerEntity: 7},
		{Name: "Biosamples", PaperTriples: 1_100_000_000, TriplesPerEntity: 9},
		{Name: "Reactome", PaperTriples: 19_000_000, TriplesPerEntity: 11},
	}
}

// GenerateSource adds a scaled-down rendition of the source to the
// graph: round(PaperTriples*scale) triples in the source's record
// shape. It returns the number of triples added.
func GenerateSource(g *kg.Graph, src Table1Source, scale float64, seed int64) int {
	want := int(float64(src.PaperTriples) * scale)
	if want <= 0 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	ns := fmt.Sprintf("http://ids.example.org/%s/", src.Name)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }

	added := 0
	entity := 0
	for added < want {
		entity++
		subj := iri(fmt.Sprintf("%sentity%d", ns, entity))
		g.Add(subj, iri(RDFType), iri(ns+"Record"))
		added++
		for p := 1; p < src.TriplesPerEntity && added < want; p++ {
			pred := iri(fmt.Sprintf("%sp%d", ns, p))
			if p%3 == 0 {
				// Link triple to another entity.
				o := rng.Intn(entity) + 1
				g.Add(subj, pred, iri(fmt.Sprintf("%sentity%d", ns, o)))
			} else {
				g.Add(subj, pred, lit(fmt.Sprintf("v%d_%d", entity, p)))
			}
			added++
		}
	}
	return added
}
