// Package synth generates the synthetic datasets that stand in for the
// paper's proprietary-scale inputs: a UniProt/ChEMBL-shaped life-
// science knowledge graph with controlled sequence-similarity tiers
// (so the Table 2 selectivity sweep reproduces the paper's candidate
// counts), and Table 1's seven RDF sources at a configurable scale
// factor. All generation is deterministic in the seed.
package synth

import (
	"fmt"
	"math"
	"math/rand"

	"ids/internal/align"
	"ids/internal/dict"
	"ids/internal/kg"
	"ids/internal/molgen"
)

// Namespace IRIs used by the generated graph.
const (
	NSUp       = "http://purl.uniprot.org/core/"
	NSProtein  = "http://purl.uniprot.org/uniprot/"
	NSChem     = "http://ids.example.org/chem/"
	NSCompound = "http://ids.example.org/compound/"
	RDFType    = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
)

// Predicate IRIs.
const (
	PredType     = RDFType
	PredReviewed = NSUp + "reviewed"
	PredSequence = NSUp + "sequence"
	PredMnemonic = NSUp + "mnemonic"
	PredInhibits = NSChem + "inhibits"
	PredSMILES   = NSChem + "smiles"
	PredIC50     = NSChem + "ic50"
	ClassProtein = NSUp + "Protein"
	ClassChem    = NSChem + "Compound"
)

// TargetAccession is the paper's protein of interest (adenosine
// receptor A2a).
const TargetAccession = "P29274"

// TargetIRI is the full subject IRI of the target protein.
const TargetIRI = NSProtein + TargetAccession

// SimTier describes one band of proteins with sequence similarity to
// the target in [Lo, Hi), each carrying CompoundsPerProtein inhibitor
// compounds.
type SimTier struct {
	Lo, Hi              float64
	Proteins            int
	CompoundsPerProtein int
}

// NCNPRConfig scales the drug-repurposing graph.
type NCNPRConfig struct {
	Seed   int64
	Shards int
	// SeqLen is the target protein sequence length.
	SeqLen int
	// Tiers control how many candidate compounds appear at each
	// Smith-Waterman threshold. DefaultTable2Tiers reproduces the
	// paper's Table 2 counts.
	Tiers []SimTier
	// BackgroundProteins are unrelated reviewed proteins with no
	// compounds (they exercise the bulk SW scan).
	BackgroundProteins int
	// UnreviewedProteins are filtered out by the reviewed flag.
	UnreviewedProteins int
	// SkipBackgroundSim skips computing ground-truth similarity for
	// background proteins (an O(n) Smith-Waterman pass only needed by
	// tests); large-scale experiment configs set it.
	SkipBackgroundSim bool
	// NonPotentFraction makes this share of tier compounds weakly
	// potent (pIC50 in the 3-5.5 range, failing the >6 filter), so
	// the potency filter has real selectivity. Default 0: every tier
	// compound passes, and candidate counts equal the tier totals
	// (the Table 2 regime).
	NonPotentFraction float64
}

// DefaultTable2Tiers reproduces the paper's Table 2 candidate counts:
// 56 compounds above 0.99 similarity, 57 above 0.5, 121 above 0.4 and
// 1129 above 0.2.
func DefaultTable2Tiers() []SimTier {
	return []SimTier{
		{Lo: 0.995, Hi: 1.01, Proteins: 8, CompoundsPerProtein: 7},  // 56
		{Lo: 0.55, Hi: 0.90, Proteins: 1, CompoundsPerProtein: 1},   // +1 = 57
		{Lo: 0.42, Hi: 0.48, Proteins: 8, CompoundsPerProtein: 8},   // +64 = 121
		{Lo: 0.22, Hi: 0.38, Proteins: 63, CompoundsPerProtein: 16}, // +1008 = 1129
	}
}

// DefaultNCNPR returns a laptop-scale configuration with the Table 2
// tier structure.
func DefaultNCNPR(shards int) NCNPRConfig {
	return NCNPRConfig{
		Seed:               7,
		Shards:             shards,
		SeqLen:             240,
		Tiers:              DefaultTable2Tiers(),
		BackgroundProteins: 200,
		UnreviewedProteins: 40,
	}
}

// Dataset is the generated NCNPR graph plus its ground truth.
type Dataset struct {
	Graph     *kg.Graph
	TargetSeq string
	// ProteinSim maps protein IRI -> actual SW similarity to the
	// target (ground truth for tests and benches).
	ProteinSim map[string]float64
	// CompoundsOf maps protein IRI -> its compound IRIs.
	CompoundsOf map[string][]string
	// SMILESOf maps compound IRI -> SMILES string.
	SMILESOf map[string]string
	// TotalCompounds counts distinct generated compounds.
	TotalCompounds int
}

// residues in natural-ish abundance order.
const residues = "ALGVESIKRDTPNQFYMHCW"

func randSeq(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		// Skewed sampling favors the common residues.
		idx := int(math.Abs(rng.NormFloat64()) * 6)
		if idx >= len(residues) {
			idx = len(residues) - 1
		}
		b[i] = residues[idx]
	}
	return string(b)
}

// mutate returns base with k positions substituted.
func mutate(rng *rand.Rand, base string, k int) string {
	b := []byte(base)
	for i := 0; i < k; i++ {
		pos := rng.Intn(len(b))
		b[pos] = residues[rng.Intn(len(residues))]
	}
	return string(b)
}

// mutantInBand searches for a mutant of base whose SW similarity falls
// inside [lo, hi), bisecting the mutation count. Deterministic in rng.
func mutantInBand(rng *rand.Rand, profile *align.Profile, base string, lo, hi float64) (string, float64) {
	if hi > 1 && lo <= 1 {
		return base, 1 // identical tier
	}
	low, high := 0, len(base) // mutation-count bounds
	var bestSeq string
	var bestSim float64
	for iter := 0; iter < 24; iter++ {
		k := (low + high) / 2
		cand := mutate(rng, base, k)
		sim, err := profile.Similarity(cand)
		if err != nil {
			continue
		}
		if sim >= lo && sim < hi {
			return cand, sim
		}
		if bestSeq == "" || math.Abs(sim-(lo+hi)/2) < math.Abs(bestSim-(lo+hi)/2) {
			bestSeq, bestSim = cand, sim
		}
		if sim >= hi {
			low = k + 1 // too similar: mutate more
		} else {
			high = k - 1 // too diverged: mutate less
		}
		if low > high {
			low, high = 0, len(base) // restart with fresh randomness
		}
	}
	return bestSeq, bestSim
}

// BuildNCNPR generates the drug-repurposing dataset.
func BuildNCNPR(cfg NCNPRConfig) (*Dataset, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.SeqLen <= 0 {
		cfg.SeqLen = 240
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := kg.New(cfg.Shards)
	ds := &Dataset{
		Graph:       g,
		ProteinSim:  map[string]float64{},
		CompoundsOf: map[string][]string{},
		SMILESOf:    map[string]string{},
	}
	ds.TargetSeq = randSeq(rng, cfg.SeqLen)
	profile, err := align.NewBLOSUM62().NewProfile(ds.TargetSeq)
	if err != nil {
		return nil, err
	}
	gen := molgen.New(cfg.Seed ^ 0x5eed)

	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }

	addProtein := func(id, seq string, reviewed bool, sim float64) string {
		p := NSProtein + id
		g.Add(iri(p), iri(PredType), iri(ClassProtein))
		rev := "false"
		if reviewed {
			rev = "true"
		}
		g.Add(iri(p), iri(PredReviewed), lit(rev))
		g.Add(iri(p), iri(PredSequence), lit(seq))
		g.Add(iri(p), iri(PredMnemonic), lit(id+"_SYNTH"))
		ds.ProteinSim[p] = sim
		return p
	}

	compoundN := 0
	seenSMILES := map[string]bool{}
	addCompound := func(protein string, potent bool) {
		compoundN++
		c := fmt.Sprintf("%sC%05d", NSCompound, compoundN)
		// Distinct structures per compound: docking artifacts are
		// keyed by SMILES, so duplicates would alias cache entries.
		smiles := gen.Generate(1)[0]
		for tries := 0; seenSMILES[smiles] && tries < 100; tries++ {
			smiles = gen.Mutate(smiles)
			if seenSMILES[smiles] {
				smiles = gen.Generate(1)[0]
			}
		}
		seenSMILES[smiles] = true
		g.Add(iri(c), iri(PredType), iri(ClassChem))
		g.Add(iri(c), iri(PredSMILES), lit(smiles))
		g.Add(iri(c), iri(PredInhibits), iri(protein))
		// IC50 in nM: potent compounds land at pIC50 in [6.5, 9].
		var ic50 float64
		if potent {
			ic50 = math.Pow(10, 9-(6.5+2.5*rng.Float64())) // 1-316 nM
		} else {
			ic50 = math.Pow(10, 9-(3.0+2.5*rng.Float64())) // 3uM-1mM
		}
		g.Add(iri(c), iri(PredIC50), lit(fmt.Sprintf("%.3f", ic50)))
		ds.CompoundsOf[protein] = append(ds.CompoundsOf[protein], c)
		ds.SMILESOf[c] = smiles
		ds.TotalCompounds++
	}

	// The target itself.
	target := addProtein(TargetAccession, ds.TargetSeq, true, 1.0)
	_ = target

	// Tiered relatives with compounds.
	pn := 0
	for ti, tier := range cfg.Tiers {
		for i := 0; i < tier.Proteins; i++ {
			pn++
			seq, sim := ds.TargetSeq, 1.0
			if !(tier.Lo <= 1 && tier.Hi > 1) || i > 0 || ti > 0 {
				seq, sim = mutantInBand(rng, profile, ds.TargetSeq, tier.Lo, tier.Hi)
			}
			p := addProtein(fmt.Sprintf("T%d_%03d", ti, i), seq, true, sim)
			for c := 0; c < tier.CompoundsPerProtein; c++ {
				addCompound(p, rng.Float64() >= cfg.NonPotentFraction)
			}
		}
	}

	// Reviewed background (no compounds) and unreviewed proteins.
	bgSim := func(seq string) float64 {
		if cfg.SkipBackgroundSim {
			return 0
		}
		sim, _ := profile.Similarity(seq)
		return sim
	}
	for i := 0; i < cfg.BackgroundProteins; i++ {
		seq := randSeq(rng, cfg.SeqLen)
		addProtein(fmt.Sprintf("B%05d", i), seq, true, bgSim(seq))
	}
	for i := 0; i < cfg.UnreviewedProteins; i++ {
		seq := randSeq(rng, cfg.SeqLen)
		addProtein(fmt.Sprintf("U%05d", i), seq, false, bgSim(seq))
	}

	g.Seal()
	return ds, nil
}
