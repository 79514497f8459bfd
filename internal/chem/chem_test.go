package chem

import "testing"

func mustParse(t *testing.T, s string) *Mol {
	t.Helper()
	m, err := ParseSMILES(s)
	if err != nil {
		t.Fatalf("ParseSMILES(%q): %v", s, err)
	}
	return m
}

// hydrogens returns the molecule's total hydrogen count.
func hydrogens(m *Mol) int {
	n := 0
	for i := range m.Atoms {
		n += m.ImplicitH(i)
	}
	return n
}

// rings returns the cycle rank of a connected molecule.
func rings(m *Mol) int { return len(m.Bonds) - len(m.Atoms) + 1 }

func TestParseMethane(t *testing.T) {
	m := mustParse(t, "C")
	if len(m.Atoms) != 1 || len(m.Bonds) != 0 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
	if h := m.ImplicitH(0); h != 4 {
		t.Fatalf("methane implicit H = %d, want 4", h)
	}
}

func TestParseEthanol(t *testing.T) {
	m := mustParse(t, "CCO")
	if len(m.Atoms) != 3 || len(m.Bonds) != 2 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
	if h := hydrogens(m); h != 6 {
		t.Fatalf("ethanol H = %d, want 6", h)
	}
	if h := m.ImplicitH(2); h != 1 {
		t.Fatalf("ethanol O-H = %d, want 1", h)
	}
}

func TestParseBenzene(t *testing.T) {
	m := mustParse(t, "c1ccccc1")
	if len(m.Atoms) != 6 || len(m.Bonds) != 6 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
	if r := rings(m); r != 1 {
		t.Fatalf("benzene rings = %d, want 1", r)
	}
	for _, b := range m.Bonds {
		if !b.Aromatic {
			t.Fatal("benzene bond not aromatic")
		}
	}
	if h := hydrogens(m); h != 6 {
		t.Fatalf("benzene H = %d, want 6", h)
	}
}

func TestParseDoubleTripleBonds(t *testing.T) {
	m := mustParse(t, "C=C")
	if m.Bonds[0].Order != 2 {
		t.Fatalf("order = %d, want 2", m.Bonds[0].Order)
	}
	if h := m.ImplicitH(0); h != 2 {
		t.Fatalf("ethylene H = %d, want 2", h)
	}
	m = mustParse(t, "C#N")
	if m.Bonds[0].Order != 3 {
		t.Fatalf("order = %d, want 3", m.Bonds[0].Order)
	}
	if h := m.ImplicitH(1); h != 0 {
		t.Fatalf("nitrile N H = %d, want 0", h)
	}
}

func TestParseBranches(t *testing.T) {
	// Isobutane: central carbon with three methyls.
	m := mustParse(t, "CC(C)C")
	if len(m.Atoms) != 4 || len(m.Bonds) != 3 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
	if deg := len(m.Neighbors(1)); deg != 3 {
		t.Fatalf("central degree = %d, want 3", deg)
	}
}

func TestParseBracketAtoms(t *testing.T) {
	m := mustParse(t, "[NH4+]")
	a := m.Atoms[0]
	if a.Element != "N" || a.ExplicitH != 4 {
		t.Fatalf("atom = %+v", a)
	}
	m = mustParse(t, "[13CH4]")
	if m.Atoms[0].Element != "C" || m.Atoms[0].ExplicitH != 4 {
		t.Fatalf("atom = %+v", m.Atoms[0])
	}
	m = mustParse(t, "[O-]C(=O)C")
	if m.Atoms[0].Element != "O" || len(m.Atoms) != 4 {
		t.Fatalf("atoms = %+v", m.Atoms)
	}
	m = mustParse(t, "[Fe+2]")
	if m.Atoms[0].Element != "Fe" {
		t.Fatalf("atom = %+v", m.Atoms[0])
	}
}

func TestParseAromaticNWithH(t *testing.T) {
	// Pyrrole.
	m := mustParse(t, "c1cc[nH]c1")
	n := m.Atoms[3]
	if n.Element != "N" || !n.Aromatic || n.ExplicitH != 1 {
		t.Fatalf("pyrrole N = %+v", n)
	}
}

func TestParseRingClosures(t *testing.T) {
	// Naphthalene: two fused rings.
	m := mustParse(t, "c1ccc2ccccc2c1")
	if r := rings(m); r != 2 {
		t.Fatalf("naphthalene rings = %d, want 2", r)
	}
	// %nn labels.
	m = mustParse(t, "C%10CC%10")
	if r := rings(m); r != 1 {
		t.Fatalf("%%nn ring = %d, want 1", r)
	}
}

func TestParseDisconnected(t *testing.T) {
	m := mustParse(t, "C.C")
	if len(m.Atoms) != 2 || len(m.Bonds) != 0 {
		t.Fatalf("atoms=%d bonds=%d", len(m.Atoms), len(m.Bonds))
	}
}

func TestParseTwoLetterElements(t *testing.T) {
	m := mustParse(t, "ClCCBr")
	if m.Atoms[0].Element != "Cl" || m.Atoms[3].Element != "Br" {
		t.Fatalf("atoms = %+v", m.Atoms)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "C(", "C)", "C1CC", "[C", "[]", "C(=O", "1CC1", "X", "[1]", "%1C",
	}
	for _, s := range bad {
		if _, err := ParseSMILES(s); err == nil {
			t.Errorf("ParseSMILES(%q) succeeded, want error", s)
		}
	}
}

func TestCaffeineParses(t *testing.T) {
	// C8H10N4O2: 14 heavy atoms in two fused rings.
	m := mustParse(t, "Cn1cnc2c1c(=O)n(C)c(=O)n2C")
	if len(m.Atoms) != 14 || rings(m) != 2 || hydrogens(m) != 10 {
		t.Fatalf("caffeine atoms/rings/H = %d/%d/%d, want 14/2/10", len(m.Atoms), rings(m), hydrogens(m))
	}
}

func TestRotatableBonds(t *testing.T) {
	// Butane has one rotatable bond (C2-C3).
	if n := mustParse(t, "CCCC").RotatableBonds(); n != 1 {
		t.Fatalf("butane rotatable = %d, want 1", n)
	}
	// Cyclohexane has none.
	if n := mustParse(t, "C1CCCCC1").RotatableBonds(); n != 0 {
		t.Fatalf("cyclohexane rotatable = %d, want 0", n)
	}
	// Biphenyl has exactly the inter-ring bond.
	if n := mustParse(t, "c1ccccc1-c1ccccc1").RotatableBonds(); n != 1 {
		t.Fatalf("biphenyl rotatable = %d, want 1", n)
	}
}

func BenchmarkParseSMILES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParseSMILES("CC(=O)Oc1ccccc1C(=O)O"); err != nil {
			b.Fatal(err)
		}
	}
}
