// Package fold is the structure-prediction substrate standing in for
// AlphaFold in the NCNPR workflow. Given an amino-acid sequence it
// produces a deterministic Cα trace: residues are assigned secondary
// structure by Chou-Fasman-style helix/sheet propensities, then laid
// out as ideal helix/strand/coil geometry. Each residue also carries a
// pLDDT-like confidence. The output feeds the docking engine exactly
// the way AlphaFold models feed AutoDock Vina in the paper.
package fold

import (
	"errors"
	"hash/fnv"
	"math"
)

// Point is a 3D coordinate in Angstroms.
type Point struct{ X, Y, Z float64 }

// Add returns p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p-q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns p*s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s, p.Z * s} }

// Norm returns |p|.
func (p Point) Norm() float64 { return math.Sqrt(p.X*p.X + p.Y*p.Y + p.Z*p.Z) }

// Dist returns |p-q|.
func Dist(p, q Point) float64 { return p.Sub(q).Norm() }

// SecStruct labels a residue's predicted secondary structure.
type SecStruct uint8

// Secondary structure classes.
const (
	Coil SecStruct = iota
	Helix
	Sheet
)

func (s SecStruct) String() string {
	switch s {
	case Helix:
		return "H"
	case Sheet:
		return "E"
	default:
		return "C"
	}
}

// Structure is a predicted protein structure: one Cα per residue.
type Structure struct {
	Sequence   string
	CA         []Point
	SS         []SecStruct
	Confidence []float64 // pLDDT-like, in [0, 100]
}

// helixProp and sheetProp are Chou-Fasman propensities (scaled).
var helixProp = map[byte]float64{
	'A': 1.42, 'C': 0.70, 'D': 1.01, 'E': 1.51, 'F': 1.13, 'G': 0.57,
	'H': 1.00, 'I': 1.08, 'K': 1.16, 'L': 1.21, 'M': 1.45, 'N': 0.67,
	'P': 0.57, 'Q': 1.11, 'R': 0.98, 'S': 0.77, 'T': 0.83, 'V': 1.06,
	'W': 1.08, 'Y': 0.69,
}

var sheetProp = map[byte]float64{
	'A': 0.83, 'C': 1.19, 'D': 0.54, 'E': 0.37, 'F': 1.38, 'G': 0.75,
	'H': 0.87, 'I': 1.60, 'K': 0.74, 'L': 1.30, 'M': 1.05, 'N': 0.89,
	'P': 0.55, 'Q': 1.10, 'R': 0.93, 'S': 0.75, 'T': 1.19, 'V': 1.70,
	'W': 1.37, 'Y': 1.47,
}

// hydrophobic marks residues contributing to the binding pocket.
var hydrophobic = map[byte]bool{
	'A': true, 'V': true, 'L': true, 'I': true, 'M': true, 'F': true,
	'W': true, 'C': true, 'Y': true,
}

// ErrEmptySequence is returned for an empty input.
var ErrEmptySequence = errors.New("fold: empty sequence")

// windowSize is the smoothing window for propensity averaging.
const windowSize = 5

// Predict folds the sequence into a deterministic Cα trace. Unknown
// residue letters get neutral propensities; the function never fails
// except on an empty sequence.
func Predict(seq string) (*Structure, error) {
	n := len(seq)
	if n == 0 {
		return nil, ErrEmptySequence
	}
	ss := assignSS(seq)
	st := &Structure{
		Sequence:   seq,
		CA:         make([]Point, n),
		SS:         ss,
		Confidence: make([]float64, n),
	}
	buildTrace(st)
	assignConfidence(st)
	return st, nil
}

// assignSS smooths helix/sheet propensities over a window and labels
// each residue with the winning class (coil when both are weak).
func assignSS(seq string) []SecStruct {
	n := len(seq)
	ss := make([]SecStruct, n)
	for i := 0; i < n; i++ {
		var h, e float64
		cnt := 0
		for j := i - windowSize/2; j <= i+windowSize/2; j++ {
			if j < 0 || j >= n {
				continue
			}
			c := seq[j]
			hp, ok := helixProp[c]
			if !ok {
				hp = 1.0
			}
			ep, ok := sheetProp[c]
			if !ok {
				ep = 1.0
			}
			h += hp
			e += ep
			cnt++
		}
		h /= float64(cnt)
		e /= float64(cnt)
		switch {
		case h >= 1.03 && h >= e:
			ss[i] = Helix
		case e >= 1.05 && e > h:
			ss[i] = Sheet
		default:
			ss[i] = Coil
		}
	}
	return ss
}

// buildTrace lays out the Cα positions with ideal geometry: a helix
// advances 1.5 Å per residue around a 2.3 Å-radius spiral (100°/res),
// a strand extends 3.5 Å per residue, and coil turns pseudo-randomly
// (deterministic in the sequence).
func buildTrace(st *Structure) {
	h := fnv.New64a()
	h.Write([]byte(st.Sequence))
	rng := splitmix64{state: h.Sum64()}

	pos := Point{}
	dir := Point{X: 1}
	phase := 0.0
	for i := range st.CA {
		switch st.SS[i] {
		case Helix:
			phase += 100 * math.Pi / 180
			offset := Point{
				X: 0,
				Y: 2.3 * math.Cos(phase),
				Z: 2.3 * math.Sin(phase),
			}
			pos = pos.Add(dir.Scale(1.5))
			st.CA[i] = pos.Add(rotateToward(offset, dir))
		case Sheet:
			pos = pos.Add(dir.Scale(3.5))
			st.CA[i] = pos
		default:
			// Coil: random turn, 3.8 Å Cα-Cα distance.
			theta := (rng.float64() - 0.5) * math.Pi
			psi := (rng.float64() - 0.5) * math.Pi
			dir = turn(dir, theta, psi)
			pos = pos.Add(dir.Scale(3.8))
			st.CA[i] = pos
		}
	}
}

// rotateToward maps the canonical helix offset into the frame of dir.
// For the axis-aligned default direction this is the identity; for
// turned coils it just projects, which is adequate for a surrogate.
func rotateToward(offset, dir Point) Point {
	// Build an orthonormal frame (dir, u, v).
	u := Point{X: -dir.Y, Y: dir.X, Z: 0}
	if u.Norm() < 1e-9 {
		u = Point{X: 1}
	}
	u = u.Scale(1 / u.Norm())
	v := cross(dir, u)
	if n := v.Norm(); n > 1e-9 {
		v = v.Scale(1 / n)
	}
	return u.Scale(offset.Y).Add(v.Scale(offset.Z))
}

func cross(a, b Point) Point {
	return Point{
		X: a.Y*b.Z - a.Z*b.Y,
		Y: a.Z*b.X - a.X*b.Z,
		Z: a.X*b.Y - a.Y*b.X,
	}
}

// turn rotates dir by theta around Z and psi around Y, renormalized.
func turn(dir Point, theta, psi float64) Point {
	ct, stheta := math.Cos(theta), math.Sin(theta)
	d := Point{
		X: dir.X*ct - dir.Y*stheta,
		Y: dir.X*stheta + dir.Y*ct,
		Z: dir.Z,
	}
	cp, sp := math.Cos(psi), math.Sin(psi)
	d = Point{
		X: d.X*cp + d.Z*sp,
		Y: d.Y,
		Z: -d.X*sp + d.Z*cp,
	}
	if n := d.Norm(); n > 1e-9 {
		d = d.Scale(1 / n)
	}
	return d
}

// assignConfidence gives regular secondary structure high pLDDT and
// coil/termini lower values, echoing AlphaFold's characteristic
// confidence profile.
func assignConfidence(st *Structure) {
	n := len(st.CA)
	for i := range st.Confidence {
		base := 55.0
		switch st.SS[i] {
		case Helix:
			base = 90
		case Sheet:
			base = 85
		}
		// Termini are less confident.
		edge := math.Min(float64(i), float64(n-1-i))
		if edge < 5 {
			base -= (5 - edge) * 4
		}
		if base < 30 {
			base = 30
		}
		st.Confidence[i] = base
	}
}

// PocketCenter returns the docking box center: the Cα of the
// hydrophobic residue closest to the hydrophobic centroid. Snapping to
// a real residue position guarantees the box surrounds actual protein
// surface (a raw centroid of an extended chain can sit in empty
// space). Falls back to all residues when none are hydrophobic.
func (st *Structure) PocketCenter() Point {
	var c Point
	cnt := 0
	for i, p := range st.CA {
		if hydrophobic[st.Sequence[i]] {
			c = c.Add(p)
			cnt++
		}
	}
	if cnt == 0 {
		for _, p := range st.CA {
			c = c.Add(p)
		}
		cnt = len(st.CA)
	}
	c = c.Scale(1 / float64(cnt))
	best := st.CA[0]
	bestD := math.Inf(1)
	for i, p := range st.CA {
		if cnt > 0 && !hydrophobic[st.Sequence[i]] && hasHydrophobic(st.Sequence) {
			continue
		}
		if d := Dist(p, c); d < bestD {
			best, bestD = p, d
		}
	}
	return best
}

func hasHydrophobic(seq string) bool {
	for i := 0; i < len(seq); i++ {
		if hydrophobic[seq[i]] {
			return true
		}
	}
	return false
}

type splitmix64 struct{ state uint64 }

func (s *splitmix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) float64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}
