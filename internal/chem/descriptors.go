package chem

import "math"

// defaultValence gives the organic-subset implicit-hydrogen valence.
var defaultValence = map[string]int{
	"B": 3, "C": 4, "N": 3, "O": 2, "P": 3, "S": 2,
	"F": 1, "Cl": 1, "Br": 1, "I": 1,
}

// ImplicitH returns the hydrogen count of atom i. Bracket atoms use
// their explicit count; organic-subset atoms follow the SMILES rule:
// default valence minus the sum of bond orders (aromatic bonds count
// 1.5, floored), clamped to [0, 1] for two-connected aromatic atoms
// and to zero below.
func (m *Mol) ImplicitH(i int) int {
	a := m.Atoms[i]
	if a.ExplicitH >= 0 {
		return a.ExplicitH
	}
	v, ok := defaultValence[a.Element]
	if !ok {
		return 0
	}
	sum := 0.0
	for _, bi := range m.adj[i] {
		b := m.Bonds[bi]
		if b.Aromatic {
			sum += 1.5
		} else {
			sum += float64(b.Order)
		}
	}
	h := v - int(math.Floor(sum))
	if a.Aromatic && len(m.adj[i]) >= 2 && h > 1 {
		// Ring-internal aromatic atoms carry at most one hydrogen.
		h = 1
	}
	if h < 0 {
		h = 0
	}
	return h
}

// RotatableBonds counts non-ring single bonds between two heavy atoms
// that each have at least one further heavy neighbor (the standard
// rotatable-bond definition minus amide special-casing).
func (m *Mol) RotatableBonds() int {
	inRing := m.ringBonds()
	n := 0
	for bi, b := range m.Bonds {
		if b.Order != 1 || b.Aromatic || inRing[bi] {
			continue
		}
		if len(m.adj[b.A]) > 1 && len(m.adj[b.B]) > 1 {
			n++
		}
	}
	return n
}

// ringBonds marks bonds that belong to at least one cycle. A bond is
// in a ring iff it is not a bridge, found with Tarjan's low-link DFS.
func (m *Mol) ringBonds() []bool {
	n := len(m.Atoms)
	inRing := make([]bool, len(m.Bonds))
	for bi := range inRing {
		inRing[bi] = true
	}
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	var dfs func(at, parentBond int)
	dfs = func(at, parentBond int) {
		disc[at] = timer
		low[at] = timer
		timer++
		for _, bi := range m.adj[at] {
			if bi == parentBond {
				continue
			}
			nb := m.Other(m.Bonds[bi], at)
			if disc[nb] == -1 {
				dfs(nb, bi)
				if low[nb] < low[at] {
					low[at] = low[nb]
				}
				if low[nb] > disc[at] {
					inRing[bi] = false // bridge
				}
			} else if disc[nb] < low[at] {
				low[at] = disc[nb]
			}
		}
	}
	for i := 0; i < n; i++ {
		if disc[i] == -1 {
			dfs(i, -1)
		}
	}
	return inRing
}
