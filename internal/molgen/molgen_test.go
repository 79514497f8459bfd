package molgen

import (
	"testing"

	"ids/internal/chem"
)

func TestGenerateAllValid(t *testing.T) {
	g := New(1)
	for i, s := range g.Generate(500) {
		if _, err := chem.ParseSMILES(s); err != nil {
			t.Fatalf("molecule %d %q invalid: %v", i, s, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := New(7).Generate(50)
	b := New(7).Generate(50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestGenerateDiverse(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range New(3).Generate(200) {
		seen[s] = true
	}
	if len(seen) < 50 {
		t.Fatalf("only %d distinct molecules in 200", len(seen))
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1).Generate(20)
	b := New(2).Generate(20)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGenerateMol(t *testing.T) {
	mols := parseAll(t, New(5).Generate(50))
	if len(mols) != 50 {
		t.Fatalf("got %d mols", len(mols))
	}
	for _, m := range mols {
		if len(m.Atoms) == 0 {
			t.Fatalf("molecule %q has no atoms", m.SMILES)
		}
	}
}

func TestGeneratedMoleculesAreDruglike(t *testing.T) {
	// Most generated molecules should be small and flexible enough for
	// drug-like space: at most 36 heavy atoms (about 500 Da) and at most
	// 10 rotatable bonds (Veber).
	mols := parseAll(t, New(11).Generate(200))
	passing := 0
	for _, m := range mols {
		if len(m.Atoms) <= 36 && m.RotatableBonds() <= 10 {
			passing++
		}
	}
	if passing < len(mols)*3/4 {
		t.Fatalf("only %d/%d drug-like", passing, len(mols))
	}
}

func TestMutatePreservesValidity(t *testing.T) {
	g := New(13)
	for _, s := range g.Generate(50) {
		m := g.Mutate(s)
		if _, err := chem.ParseSMILES(m); err != nil {
			t.Fatalf("Mutate(%q) = %q invalid: %v", s, m, err)
		}
	}
}

func BenchmarkGenerate(b *testing.B) {
	g := New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Generate(10)
	}
}

func parseAll(t *testing.T, smiles []string) []*chem.Mol {
	t.Helper()
	mols := make([]*chem.Mol, len(smiles))
	for i, s := range smiles {
		m, err := chem.ParseSMILES(s)
		if err != nil {
			t.Fatalf("ParseSMILES(%q): %v", s, err)
		}
		mols[i] = m
	}
	return mols
}
