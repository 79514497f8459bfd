package chem

import "testing"

// FuzzSMILESParse throws arbitrary strings at the SMILES parser. The
// contract: malformed input errors, it never panics, and an accepted
// molecule is structurally sound (bond endpoints in range — the
// invariant the ring and hydrogen counts rely on).
func FuzzSMILESParse(f *testing.F) {
	for _, seed := range []string{
		``,
		`C`,
		`CCO`,
		`c1ccccc1`,
		`CC(=O)Oc1ccccc1C(=O)O`, // aspirin
		`[13CH4]`,
		`[NH4+]`,
		`C%12CC%12`,
		`C1CC`,  // unclosed ring
		`C((C)`, // unbalanced branch
		`[`,
		`C=#C`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseSMILES(s)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("ParseSMILES returned nil molecule without error")
		}
		for i, b := range m.Bonds {
			if b.A < 0 || b.A >= len(m.Atoms) || b.B < 0 || b.B >= len(m.Atoms) {
				t.Fatalf("bond %d endpoints (%d,%d) out of range for %d atoms", i, b.A, b.B, len(m.Atoms))
			}
		}
	})
}
