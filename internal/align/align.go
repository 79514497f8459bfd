// Package align implements the Smith-Waterman local alignment
// algorithm used by the NCNPR workflow's cheapest filter UDF. The
// paper uses the SIMD SSW library (Zhao et al. 2013) at < 1 ms per
// comparison; this package provides the same algorithm with a scalar
// affine-gap kernel plus an SSW-style query-profile optimization.
package align

import (
	"errors"
	"fmt"
	"sync"
)

// Scorer holds the substitution matrix and affine gap penalties for an
// alignment run. Scorers are immutable after construction and safe for
// concurrent use.
type Scorer struct {
	matrix    *[24][24]int8
	gapOpen   int // penalty charged when a gap is opened (positive)
	gapExtend int // penalty charged per gap extension (positive)
}

// NewBLOSUM62 returns a scorer with the BLOSUM62 matrix and the SSW
// default gap penalties (open 11, extend 1).
func NewBLOSUM62() *Scorer {
	return &Scorer{matrix: &blosum62, gapOpen: 11, gapExtend: 1}
}

// ErrEmptySequence is returned when either input sequence is empty.
var ErrEmptySequence = errors.New("align: empty sequence")

// ErrBadResidue is returned when a sequence contains a character
// outside the substitution-matrix alphabet.
var ErrBadResidue = errors.New("align: residue outside alphabet")

// encode maps a protein sequence to matrix row indexes.
func encode(seq string) ([]int8, error) {
	if len(seq) == 0 {
		return nil, ErrEmptySequence
	}
	out := make([]int8, len(seq))
	for i := 0; i < len(seq); i++ {
		idx := residueIndex[seq[i]]
		if idx < 0 {
			return nil, fmt.Errorf("%w: %q at %d", ErrBadResidue, seq[i], i)
		}
		out[i] = idx
	}
	return out, nil
}

// Profile is a preprocessed query: a per-residue score column for each
// query position, the SSW-style optimization that removes the matrix
// lookup from the inner loop. Build once per query, reuse against many
// targets.
type Profile struct {
	scorer *Scorer
	length int
	// cols[r][i] = matrix[r][query[i]] for residue class r.
	cols      [24][]int8
	selfScore int
}

// NewProfile preprocesses a query sequence.
func (s *Scorer) NewProfile(query string) (*Profile, error) {
	q, err := encode(query)
	if err != nil {
		return nil, err
	}
	p := &Profile{scorer: s, length: len(q)}
	for r := 0; r < 24; r++ {
		col := make([]int8, len(q))
		for i, qc := range q {
			col[i] = s.matrix[r][qc]
		}
		p.cols[r] = col
	}
	for _, qc := range q {
		p.selfScore += int(s.matrix[qc][qc])
	}
	return p, nil
}

// dpScratch is the per-alignment working set, pooled so the bulk-scan
// UDF path (millions of Align calls per query) does not allocate per
// call. The buffers are resized on demand and fully overwritten before
// use.
type dpScratch struct {
	t []int8
	H []int
	E []int
}

var dpPool = sync.Pool{New: func() any { return &dpScratch{} }}

// encodeInto maps a protein sequence into dst (grown as needed),
// avoiding the per-call allocation of encode.
func encodeInto(dst []int8, seq string) ([]int8, error) {
	if len(seq) == 0 {
		return nil, ErrEmptySequence
	}
	if cap(dst) < len(seq) {
		dst = make([]int8, len(seq))
	}
	dst = dst[:len(seq)]
	for i := 0; i < len(seq); i++ {
		idx := residueIndex[seq[i]]
		if idx < 0 {
			return nil, fmt.Errorf("%w: %q at %d", ErrBadResidue, seq[i], i)
		}
		dst[i] = idx
	}
	return dst, nil
}

// Align runs affine-gap Smith-Waterman of the profiled query against
// target, using two rolling DP rows (score-only, O(target) memory), and
// returns the optimal local-alignment score.
func (p *Profile) Align(target string) (int, error) {
	sc := dpPool.Get().(*dpScratch)
	defer dpPool.Put(sc)
	t, err := encodeInto(sc.t, target)
	if err != nil {
		return 0, err
	}
	sc.t = t
	s := p.scorer
	n := p.length
	// H[j]: best score ending at (i, j); E[j]: best with gap in query.
	if cap(sc.H) < n+1 {
		sc.H = make([]int, n+1)
		sc.E = make([]int, n+1)
	}
	H := sc.H[:n+1]
	E := sc.E[:n+1]
	for j := range H {
		H[j] = 0
		E[j] = 0
	}
	best := 0
	for i := 0; i < len(t); i++ {
		col := p.cols[t[i]]
		f := 0       // best with gap in target for current row
		diag := H[0] // H[i-1][j-1]
		for j := 1; j <= n; j++ {
			e := max(E[j]-s.gapExtend, H[j]-s.gapOpen)
			f = max(f-s.gapExtend, H[j-1]-s.gapOpen)
			h := diag + int(col[j-1])
			if e > h {
				h = e
			}
			if f > h {
				h = f
			}
			if h < 0 {
				h = 0
			}
			diag = H[j]
			H[j] = h
			E[j] = e
			if h > best {
				best = h
			}
		}
	}
	return best, nil
}

// Similarity returns the normalized local-alignment similarity of the
// profiled query to target in [0, 1]: SW score divided by the query
// self-score. This is the quantity thresholded by the Table 2
// selectivity sweep.
func (p *Profile) Similarity(target string) (float64, error) {
	score, err := p.Align(target)
	if err != nil {
		return 0, err
	}
	if p.selfScore <= 0 {
		return 0, nil
	}
	sim := float64(score) / float64(p.selfScore)
	if sim > 1 {
		sim = 1
	}
	return sim, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
