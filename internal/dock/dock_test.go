package dock

import (
	"errors"
	"math"
	"strings"
	"testing"

	"ids/internal/chem"
	"ids/internal/fold"
)

const recSeq = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQVKVKALPDAQFEVVHSLAKWKR"

func testReceptor(t *testing.T) *Receptor {
	t.Helper()
	st, err := fold.Predict(recSeq)
	if err != nil {
		t.Fatal(err)
	}
	return ReceptorFromStructure(st)
}

func testLigand(t *testing.T, smiles string) *Ligand {
	t.Helper()
	m, err := chem.ParseSMILES(smiles)
	if err != nil {
		t.Fatal(err)
	}
	lig, err := Embed(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	return lig
}

func TestEmbedBasics(t *testing.T) {
	lig := testLigand(t, "CC(=O)Oc1ccccc1C(=O)O")
	if len(lig.Atoms) != 13 {
		t.Fatalf("embedded %d atoms, want 13", len(lig.Atoms))
	}
	// Centroid at origin.
	var c fold.Point
	for _, a := range lig.Atoms {
		c = c.Add(a.Pos)
	}
	c = c.Scale(1 / float64(len(lig.Atoms)))
	if c.Norm() > 1e-9 {
		t.Fatalf("centroid %v not at origin", c)
	}
	// No two atoms closer than a tight clash limit.
	for i := range lig.Atoms {
		for j := i + 1; j < len(lig.Atoms); j++ {
			if d := fold.Dist(lig.Atoms[i].Pos, lig.Atoms[j].Pos); d < 0.5 {
				t.Fatalf("atoms %d,%d clash at %f", i, j, d)
			}
		}
	}
}

func TestEmbedDeterministic(t *testing.T) {
	a := testLigand(t, "CCO")
	b := testLigand(t, "CCO")
	for i := range a.Atoms {
		if a.Atoms[i] != b.Atoms[i] {
			t.Fatal("embedding not deterministic")
		}
	}
}

func TestEmbedDisconnected(t *testing.T) {
	lig := testLigand(t, "C.C")
	if len(lig.Atoms) != 2 {
		t.Fatalf("atoms = %d", len(lig.Atoms))
	}
	if fold.Dist(lig.Atoms[0].Pos, lig.Atoms[1].Pos) < 2 {
		t.Fatal("disconnected components placed on top of each other")
	}
}

func TestEmbedNoAtoms(t *testing.T) {
	m := &chem.Mol{}
	if _, err := Embed(m, 1); !errors.Is(err, ErrNoAtoms) {
		t.Fatalf("err = %v", err)
	}
}

func TestAtomClasses(t *testing.T) {
	m, err := chem.ParseSMILES("CCO")
	if err != nil {
		t.Fatal(err)
	}
	if c := atomClassOf(m, 0); c != Hydrophobic {
		t.Fatalf("carbon class = %d", c)
	}
	if c := atomClassOf(m, 2); c != DonorAcceptor {
		t.Fatalf("hydroxyl O class = %d", c)
	}
	// Carbonyl O (no H) is acceptor only.
	m2, err := chem.ParseSMILES("C=O")
	if err != nil {
		t.Fatal(err)
	}
	if c := atomClassOf(m2, 1); c != Acceptor {
		t.Fatalf("carbonyl O class = %d", c)
	}
}

func TestReceptorFromStructure(t *testing.T) {
	rec := testReceptor(t)
	if len(rec.Atoms) != len(recSeq) {
		t.Fatalf("receptor atoms = %d, want %d", len(rec.Atoms), len(recSeq))
	}
	if rec.BoxRadius <= 0 {
		t.Fatal("non-positive box radius")
	}
}

func TestPairScoreShape(t *testing.T) {
	// Deep overlap must be strongly repulsive.
	if s := pairScore(-1.0, Hydrophobic, Hydrophobic); s <= 0 {
		t.Fatalf("overlap score %f not repulsive", s)
	}
	// Contact distance should be attractive for hydrophobic pairs.
	if s := pairScore(0.3, Hydrophobic, Hydrophobic); s >= 0 {
		t.Fatalf("contact score %f not attractive", s)
	}
	// Far apart: negligible.
	if s := math.Abs(pairScore(7.5, Hydrophobic, Hydrophobic)); s > 0.01 {
		t.Fatalf("far score %f not negligible", s)
	}
	// H-bond pair at ideal distance is more favorable than the same
	// geometry without complementarity.
	hb := pairScore(-0.3, Donor, Acceptor)
	no := pairScore(-0.3, Donor, Donor)
	if hb >= no {
		t.Fatalf("hbond %f not better than non-complementary %f", hb, no)
	}
}

func TestSlope(t *testing.T) {
	if slope(-1, 0, -0.7) != 1 {
		t.Fatal("slope below lo should be 1")
	}
	if slope(0.5, 0, -0.7) != 0 {
		t.Fatal("slope above hi should be 0")
	}
	mid := slope(-0.35, 0, -0.7)
	if mid <= 0 || mid >= 1 {
		t.Fatalf("slope mid = %f", mid)
	}
}

func TestHBondPair(t *testing.T) {
	if !hbondPair(Donor, Acceptor) || !hbondPair(Acceptor, Donor) {
		t.Fatal("donor/acceptor should H-bond")
	}
	if !hbondPair(DonorAcceptor, DonorAcceptor) {
		t.Fatal("hydroxyl pair should H-bond")
	}
	if hbondPair(Donor, Donor) || hbondPair(Hydrophobic, Acceptor) {
		t.Fatal("non-complementary pairs should not H-bond")
	}
}

func TestDockFindsFavorablePose(t *testing.T) {
	rec := testReceptor(t)
	lig := testLigand(t, "CC(=O)Oc1ccccc1C(=O)O")
	res, err := Dock(rec, lig, Params{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Affinity >= 0 {
		t.Fatalf("affinity = %f, want negative (favorable)", res.Affinity)
	}
}

func TestDockDeterministic(t *testing.T) {
	rec := testReceptor(t)
	lig := testLigand(t, "CCO")
	a, err := Dock(rec, lig, Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dock(rec, lig, Params{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.Affinity != b.Affinity {
		t.Fatalf("same seed, different affinities: %f vs %f", a.Affinity, b.Affinity)
	}
}

func TestDockSearchImproves(t *testing.T) {
	// More steps should not find a worse pose (same seed family).
	rec := testReceptor(t)
	lig := testLigand(t, "c1ccccc1CCO")
	short, err := Dock(rec, lig, Params{Steps: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	long, err := Dock(rec, lig, Params{Steps: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if long.Affinity > short.Affinity+1e-9 {
		t.Fatalf("longer search worse: %f vs %f", long.Affinity, short.Affinity)
	}
}

func TestDockErrors(t *testing.T) {
	rec := testReceptor(t)
	if _, err := Dock(rec, &Ligand{}, Params{Seed: 1}); err == nil {
		t.Fatal("empty ligand accepted")
	}
	lig := testLigand(t, "C")
	if _, err := Dock(&Receptor{}, lig, Params{Seed: 1}); err == nil {
		t.Fatal("empty receptor accepted")
	}
}

func TestCostBand(t *testing.T) {
	// Deterministic and in the paper's 31-44 s band.
	if Cost("CCO") != Cost("CCO") {
		t.Fatal("Cost not deterministic")
	}
	seen := map[bool]int{}
	for i := 0; i < 200; i++ {
		c := Cost("C" + strings.Repeat("C", i%20) + "O")
		if c < 31 || c > 44 {
			t.Fatalf("cost %f outside [31,44]", c)
		}
		seen[c > 37.5]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatal("costs do not spread over the band")
	}
}

func TestPoseApplyIsRigid(t *testing.T) {
	// Rigid transforms preserve pairwise distances.
	p := Pose{Translation: fold.Point{X: 3, Y: -2, Z: 5}, RotZ: 0.7, RotY: -1.2, RotX: 2.1}
	a := fold.Point{X: 1, Y: 0, Z: 0}
	b := fold.Point{X: 0, Y: 2, Z: -1}
	before := fold.Dist(a, b)
	after := fold.Dist(p.apply(a), p.apply(b))
	if math.Abs(before-after) > 1e-9 {
		t.Fatalf("rigid transform changed distance: %f -> %f", before, after)
	}
}

func BenchmarkScore(b *testing.B) {
	st, err := fold.Predict(recSeq)
	if err != nil {
		b.Fatal(err)
	}
	rec := ReceptorFromStructure(st)
	m, err := chem.ParseSMILES("CC(=O)Oc1ccccc1C(=O)O")
	if err != nil {
		b.Fatal(err)
	}
	lig, err := Embed(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	pose := Pose{Translation: rec.Center}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score(rec, lig, pose)
	}
}

func BenchmarkDock(b *testing.B) {
	st, err := fold.Predict(recSeq)
	if err != nil {
		b.Fatal(err)
	}
	rec := ReceptorFromStructure(st)
	m, err := chem.ParseSMILES("CCO")
	if err != nil {
		b.Fatal(err)
	}
	lig, err := Embed(m, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Dock(rec, lig, Params{Steps: 200, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
