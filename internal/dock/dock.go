// Package dock implements a small molecular-docking engine standing in
// for AutoDock Vina in the NCNPR workflow. It is a real docking code,
// not a stub: ligand conformers are embedded in 3D, poses are sampled
// with Metropolis Monte-Carlo over rigid-body moves, and poses are
// scored with the five-term Vina scoring function (gauss1, gauss2,
// repulsion, hydrophobic, hydrogen-bond) using Vina's published
// weights. What is simulated is only the cost: a real Vina run takes
// 31-44 s per ligand in the paper, so Cost reports a deterministic
// virtual charge in that range for the rank clock, while the actual
// search here runs a calibrated-down step count.
package dock

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand"

	"ids/internal/chem"
	"ids/internal/fold"
)

// AtomClass is the interaction class of an atom.
type AtomClass uint8

// Interaction classes.
const (
	Hydrophobic AtomClass = iota
	Donor
	Acceptor
	DonorAcceptor
	Polar // neither hydrophobic nor H-bonding (e.g. aromatic N in ring)
)

// vdW radii by class (Angstroms), approximating C and N/O radii.
func classRadius(c AtomClass) float64 {
	if c == Hydrophobic {
		return 1.9
	}
	return 1.7
}

// RAtom is one receptor interaction site.
type RAtom struct {
	Pos   fold.Point
	Class AtomClass
}

// Receptor is a docking target: interaction sites plus a search box.
type Receptor struct {
	Atoms  []RAtom
	Center fold.Point
	// BoxRadius bounds ligand translation during search.
	BoxRadius float64
}

// residueClass maps amino-acid letters to interaction classes.
func residueClass(r byte) AtomClass {
	switch r {
	case 'A', 'V', 'L', 'I', 'M', 'F', 'W', 'P', 'G':
		return Hydrophobic
	case 'S', 'T', 'Y', 'C':
		return DonorAcceptor
	case 'K', 'R':
		return Donor
	case 'D', 'E':
		return Acceptor
	case 'N', 'Q', 'H':
		return DonorAcceptor
	default:
		return Polar
	}
}

// ReceptorFromStructure builds a docking receptor from a predicted
// structure: each Cα becomes one interaction site typed by its
// residue, and the search box centers on the hydrophobic pocket.
func ReceptorFromStructure(st *fold.Structure) *Receptor {
	rec := &Receptor{
		Atoms:     make([]RAtom, len(st.CA)),
		Center:    st.PocketCenter(),
		BoxRadius: 8,
	}
	for i, p := range st.CA {
		rec.Atoms[i] = RAtom{Pos: p, Class: residueClass(st.Sequence[i])}
	}
	return rec
}

// LAtom is one ligand atom with local coordinates (pose-relative).
type LAtom struct {
	Pos   fold.Point
	Class AtomClass
}

// Ligand is an embedded 3D conformer of a molecule.
type Ligand struct {
	Atoms  []LAtom
	NumRot int // rotatable bonds, used in the affinity normalization
}

// atomClassOf maps a molecular-graph atom to an interaction class.
func atomClassOf(m *chem.Mol, i int) AtomClass {
	a := m.Atoms[i]
	switch a.Element {
	case "C":
		return Hydrophobic
	case "N":
		if m.ImplicitH(i) > 0 {
			return DonorAcceptor
		}
		return Acceptor
	case "O":
		if m.ImplicitH(i) > 0 {
			return DonorAcceptor
		}
		return Acceptor
	case "S":
		return Hydrophobic
	case "F", "Cl", "Br", "I":
		return Hydrophobic
	default:
		return Polar
	}
}

// ErrNoAtoms is returned when embedding an empty molecule.
var ErrNoAtoms = errors.New("dock: molecule has no atoms")

// Embed generates a deterministic 3D conformer of the molecule by
// breadth-first placement: each atom sits one bond length (1.54 Å)
// from its parent in a direction chosen to avoid clashes.
func Embed(m *chem.Mol, seed int64) (*Ligand, error) {
	n := len(m.Atoms)
	if n == 0 {
		return nil, ErrNoAtoms
	}
	rng := rand.New(rand.NewSource(seed ^ int64(len(m.SMILES))))
	pos := make([]fold.Point, n)
	placed := make([]bool, n)
	queue := []int{}
	for start := 0; start < n; start++ {
		if placed[start] {
			continue
		}
		// Disconnected components offset along X.
		pos[start] = fold.Point{X: float64(start) * 4}
		placed[start] = true
		queue = append(queue[:0], start)
		for len(queue) > 0 {
			at := queue[0]
			queue = queue[1:]
			for _, bi := range m.Neighbors(at) {
				nb := m.Other(m.Bonds[bi], at)
				if placed[nb] {
					continue
				}
				pos[nb] = placeNear(pos, placed, pos[at], rng)
				placed[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	lig := &Ligand{
		Atoms:  make([]LAtom, n),
		NumRot: m.RotatableBonds(),
	}
	// Center the conformer on its centroid.
	var c fold.Point
	for _, p := range pos {
		c = c.Add(p)
	}
	c = c.Scale(1 / float64(n))
	for i := range lig.Atoms {
		lig.Atoms[i] = LAtom{Pos: pos[i].Sub(c), Class: atomClassOf(m, i)}
	}
	return lig, nil
}

// placeNear returns a position 1.54 Å from parent that keeps at least
// 1 Å from every placed atom, trying a handful of directions.
func placeNear(pos []fold.Point, placed []bool, parent fold.Point, rng *rand.Rand) fold.Point {
	const bondLen = 1.54
	best := fold.Point{}
	bestMin := -1.0
	for try := 0; try < 8; try++ {
		theta := rng.Float64() * 2 * math.Pi
		phi := math.Acos(2*rng.Float64() - 1)
		cand := parent.Add(fold.Point{
			X: bondLen * math.Sin(phi) * math.Cos(theta),
			Y: bondLen * math.Sin(phi) * math.Sin(theta),
			Z: bondLen * math.Cos(phi),
		})
		minD := math.Inf(1)
		for i, p := range pos {
			if !placed[i] {
				continue
			}
			if d := fold.Dist(cand, p); d < minD {
				minD = d
			}
		}
		if minD > bestMin {
			bestMin = minD
			best = cand
		}
		if minD >= 1.0 {
			return cand
		}
	}
	return best
}

// Vina scoring-function weights (Trott & Olson 2010).
const (
	wGauss1      = -0.035579
	wGauss2      = -0.005156
	wRepulsion   = 0.840245
	wHydrophobic = -0.035069
	wHBond       = -0.587439
	wNumRot      = 0.05846
)

// pairScore evaluates the Vina terms for one atom pair at surface
// distance d (center distance minus radii).
func pairScore(d float64, a, b AtomClass) float64 {
	s := wGauss1 * math.Exp(-(d/0.5)*(d/0.5))
	s += wGauss2 * math.Exp(-((d-3)/2)*((d-3)/2))
	if d < 0 {
		s += wRepulsion * d * d
	}
	if a == Hydrophobic && b == Hydrophobic {
		s += wHydrophobic * slope(d, 1.5, 0.5)
	}
	if hbondPair(a, b) {
		s += wHBond * slope(d, 0, -0.7)
	}
	return s
}

// slope is 1 below lo, 0 above hi, linear in between (Vina's
// piecewise-linear terms; note lo > hi order per Vina convention).
func slope(d, hi, lo float64) float64 {
	switch {
	case d <= lo:
		return 1
	case d >= hi:
		return 0
	default:
		return (hi - d) / (hi - lo)
	}
}

func hbondPair(a, b AtomClass) bool {
	don := func(c AtomClass) bool { return c == Donor || c == DonorAcceptor }
	acc := func(c AtomClass) bool { return c == Acceptor || c == DonorAcceptor }
	return (don(a) && acc(b)) || (don(b) && acc(a))
}

// cutoff beyond which pair interactions are ignored (Å).
const cutoff = 8.0

// Pose is a rigid-body placement of the ligand.
type Pose struct {
	Translation fold.Point
	// Rotation as ZYX Euler angles.
	RotZ, RotY, RotX float64
}

// apply transforms a local atom position by the pose.
func (p Pose) apply(local fold.Point) fold.Point {
	v := rotZ(local, p.RotZ)
	v = rotY(v, p.RotY)
	v = rotX(v, p.RotX)
	return v.Add(p.Translation)
}

func rotZ(p fold.Point, a float64) fold.Point {
	c, s := math.Cos(a), math.Sin(a)
	return fold.Point{X: p.X*c - p.Y*s, Y: p.X*s + p.Y*c, Z: p.Z}
}

func rotY(p fold.Point, a float64) fold.Point {
	c, s := math.Cos(a), math.Sin(a)
	return fold.Point{X: p.X*c + p.Z*s, Y: p.Y, Z: -p.X*s + p.Z*c}
}

func rotX(p fold.Point, a float64) fold.Point {
	c, s := math.Cos(a), math.Sin(a)
	return fold.Point{X: p.X, Y: p.Y*c - p.Z*s, Z: p.Y*s + p.Z*c}
}

// score evaluates the full intermolecular energy of the ligand in the
// given pose.
func score(rec *Receptor, lig *Ligand, pose Pose) float64 {
	e := 0.0
	for _, la := range lig.Atoms {
		wp := pose.apply(la.Pos)
		for _, ra := range rec.Atoms {
			d := fold.Dist(wp, ra.Pos)
			if d > cutoff {
				continue
			}
			surf := d - classRadius(la.Class) - classRadius(ra.Class)
			e += pairScore(surf, la.Class, ra.Class)
		}
	}
	return e
}

// Params configures a docking run.
type Params struct {
	Steps int   // Monte-Carlo steps (default 2000)
	Seed  int64 // RNG seed (deterministic poses per seed)
	Temp  float64
}

// Result is the outcome of one docking run.
type Result struct {
	// Affinity is the Vina-style binding free energy estimate in
	// kcal/mol; more negative is better.
	Affinity float64
}

// Dock searches for the lowest-energy pose of lig against rec with
// Metropolis Monte-Carlo over rigid-body moves, then converts the best
// intermolecular energy to an affinity with Vina's rotatable-bond
// normalization.
func Dock(rec *Receptor, lig *Ligand, p Params) (Result, error) {
	if len(lig.Atoms) == 0 {
		return Result{}, ErrNoAtoms
	}
	if len(rec.Atoms) == 0 {
		return Result{}, errors.New("dock: receptor has no atoms")
	}
	if p.Steps <= 0 {
		p.Steps = 2000
	}
	if p.Temp <= 0 {
		p.Temp = 1.2
	}
	rng := rand.New(rand.NewSource(p.Seed))
	box := rec.BoxRadius
	if box <= 0 {
		box = 8
	}
	// Start in contact with the pocket (small jitter only) so the
	// search begins inside the interaction shell rather than in empty
	// solvent.
	cur := Pose{
		Translation: rec.Center.Add(fold.Point{
			X: (rng.Float64() - 0.5) * 4,
			Y: (rng.Float64() - 0.5) * 4,
			Z: (rng.Float64() - 0.5) * 4,
		}),
		RotZ: rng.Float64() * 2 * math.Pi,
		RotY: rng.Float64() * 2 * math.Pi,
		RotX: rng.Float64() * 2 * math.Pi,
	}
	curE := score(rec, lig, cur)
	bestE := curE
	for step := 0; step < p.Steps; step++ {
		// Annealed step sizes.
		frac := 1 - float64(step)/float64(p.Steps)
		cand := cur
		step := 0.4 + 3*frac // Å, annealed
		cand.Translation = cand.Translation.Add(fold.Point{
			X: (rng.Float64() - 0.5) * step,
			Y: (rng.Float64() - 0.5) * step,
			Z: (rng.Float64() - 0.5) * step,
		})
		// Keep within the box.
		d := cand.Translation.Sub(rec.Center)
		if d.Norm() > box {
			cand.Translation = rec.Center.Add(d.Scale(box / d.Norm()))
		}
		cand.RotZ += (rng.Float64() - 0.5) * frac
		cand.RotY += (rng.Float64() - 0.5) * frac
		cand.RotX += (rng.Float64() - 0.5) * frac
		e := score(rec, lig, cand)
		if e < curE || rng.Float64() < math.Exp((curE-e)/p.Temp) {
			cur, curE = cand, e
			if e < bestE {
				bestE = e
			}
		}
	}
	affinity := bestE / (1 + wNumRot*float64(lig.NumRot))
	return Result{Affinity: affinity}, nil
}

// Cost returns the virtual execution cost in seconds of docking the
// given ligand SMILES: deterministic, uniform in the 31-44 s band the
// paper measured for AutoDock Vina blind docking.
func Cost(smiles string) float64 {
	h := fnv.New64a()
	h.Write([]byte(smiles))
	u := float64(h.Sum64()%1_000_000) / 1_000_000
	return 31 + 13*u
}
