package align

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBLOSUM62Symmetric(t *testing.T) {
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			if blosum62[i][j] != blosum62[j][i] {
				t.Fatalf("matrix asymmetric at %d,%d", i, j)
			}
		}
	}
}

func TestBLOSUM62KnownEntries(t *testing.T) {
	s := NewBLOSUM62()
	// W-W is the largest diagonal entry (11); A-A is 4; A-W is -3.
	idx := func(c byte) int8 { return residueIndex[c] }
	if got := s.matrix[idx('W')][idx('W')]; got != 11 {
		t.Fatalf("W-W = %d, want 11", got)
	}
	if got := s.matrix[idx('A')][idx('A')]; got != 4 {
		t.Fatalf("A-A = %d, want 4", got)
	}
	if got := s.matrix[idx('A')][idx('W')]; got != -3 {
		t.Fatalf("A-W = %d, want -3", got)
	}
}

func TestLowercaseAccepted(t *testing.T) {
	s := NewBLOSUM62()
	up, err := local(s, "ACDEFG", "ACDEFG")
	if err != nil {
		t.Fatal(err)
	}
	low, err := local(s, "acdefg", "acdefg")
	if err != nil {
		t.Fatal(err)
	}
	if up != low {
		t.Fatalf("case sensitivity: %d vs %d", up, low)
	}
}

func TestIdenticalSequencesScoreSelf(t *testing.T) {
	s := NewBLOSUM62()
	seq := "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"
	p, err := s.NewProfile(seq)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Align(seq)
	if err != nil {
		t.Fatal(err)
	}
	if r != p.selfScore {
		t.Fatalf("self alignment score %d != self score %d", r, p.selfScore)
	}
	sim, err := p.Similarity(seq)
	if err != nil {
		t.Fatal(err)
	}
	if sim != 1.0 {
		t.Fatalf("self similarity = %f, want 1", sim)
	}
}

func TestKnownAlignment(t *testing.T) {
	// Classic textbook pair: local alignment of overlapping words.
	r, err := local(NewBLOSUM62(), "HEAGAWGHEE", "PAWHEAE")
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 {
		t.Fatalf("score = %d, want positive", r)
	}
	// The optimal local alignment is AWGHE vs AW-HE region; score with
	// BLOSUM62 open=11 ext=1: checked against reference implementation.
	ref := bruteForceSW(t, "HEAGAWGHEE", "PAWHEAE", 11, 1)
	if r != ref {
		t.Fatalf("score = %d, reference = %d", r, ref)
	}
}

// local profiles query and aligns it against target once.
func local(s *Scorer, query, target string) (int, error) {
	p, err := s.NewProfile(query)
	if err != nil {
		return 0, err
	}
	return p.Align(target)
}

// bruteForceSW is an independent full-matrix affine SW used as a test
// oracle.
func bruteForceSW(t *testing.T, query, target string, open, ext int) int {
	t.Helper()
	q, err := encode(query)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := encode(target)
	if err != nil {
		t.Fatal(err)
	}
	m, n := len(tt), len(q)
	H := make([][]int, m+1)
	E := make([][]int, m+1)
	F := make([][]int, m+1)
	for i := range H {
		H[i] = make([]int, n+1)
		E[i] = make([]int, n+1)
		F[i] = make([]int, n+1)
	}
	best := 0
	for i := 1; i <= m; i++ {
		for j := 1; j <= n; j++ {
			E[i][j] = max(E[i][j-1]-ext, H[i][j-1]-open)
			F[i][j] = max(F[i-1][j]-ext, H[i-1][j]-open)
			h := H[i-1][j-1] + int(blosum62[tt[i-1]][q[j-1]])
			h = max(h, max(E[i][j], F[i][j]))
			if h < 0 {
				h = 0
			}
			H[i][j] = h
			if h > best {
				best = h
			}
		}
	}
	return best
}

func TestProfileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	residues := "ARNDCQEGHILKMFPSTWYV"
	randSeq := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = residues[rng.Intn(len(residues))]
		}
		return string(b)
	}
	s := NewBLOSUM62()
	for trial := 0; trial < 50; trial++ {
		q := randSeq(rng.Intn(40) + 1)
		tg := randSeq(rng.Intn(40) + 1)
		p, err := s.NewProfile(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Align(tg)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceSW(t, q, tg, 11, 1)
		if got != want {
			t.Fatalf("trial %d: q=%s t=%s got %d want %d", trial, q, tg, got, want)
		}
	}
}

func TestEmptySequence(t *testing.T) {
	s := NewBLOSUM62()
	if _, err := local(s, "", "ACD"); !errors.Is(err, ErrEmptySequence) {
		t.Fatalf("err = %v, want ErrEmptySequence", err)
	}
	if _, err := local(s, "ACD", ""); !errors.Is(err, ErrEmptySequence) {
		t.Fatalf("err = %v, want ErrEmptySequence", err)
	}
}

func TestBadResidue(t *testing.T) {
	s := NewBLOSUM62()
	if _, err := local(s, "AC1D", "ACD"); !errors.Is(err, ErrBadResidue) {
		t.Fatalf("err = %v, want ErrBadResidue", err)
	}
}

func TestSimilarityBounds(t *testing.T) {
	s := NewBLOSUM62()
	p, err := s.NewProfile("MKVLAA")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := p.Similarity("WWWWWW")
	if err != nil {
		t.Fatal(err)
	}
	if sim < 0 || sim > 1 {
		t.Fatalf("similarity out of bounds: %f", sim)
	}
}

// Properties: score is symmetric in (query,target) for SW with a
// symmetric matrix, non-negative, and bounded by min self-score.
func TestSWProperties(t *testing.T) {
	s := NewBLOSUM62()
	residues := "ARNDCQEGHILKMFPSTWYV"
	toSeq := func(raw []byte) string {
		if len(raw) == 0 {
			return "A"
		}
		if len(raw) > 30 {
			raw = raw[:30]
		}
		b := make([]byte, len(raw))
		for i, c := range raw {
			b[i] = residues[int(c)%len(residues)]
		}
		return string(b)
	}
	f := func(ra, rb []byte) bool {
		a, b := toSeq(ra), toSeq(rb)
		r1, err1 := local(s, a, b)
		r2, err2 := local(s, b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if r1 != r2 || r1 < 0 {
			return false
		}
		pa, _ := s.NewProfile(a)
		pb, _ := s.NewProfile(b)
		bound := pa.selfScore
		if pb.selfScore < bound {
			bound = pb.selfScore
		}
		return r1 <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSubstringAlignsPerfectly(t *testing.T) {
	s := NewBLOSUM62()
	whole := "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQ"
	sub := whole[10:25]
	p, err := s.NewProfile(sub)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Align(whole)
	if err != nil {
		t.Fatal(err)
	}
	if r != p.selfScore {
		t.Fatalf("substring score %d != self %d", r, p.selfScore)
	}
}

func BenchmarkAlign300x300(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	residues := "ARNDCQEGHILKMFPSTWYV"
	mk := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(residues[rng.Intn(len(residues))])
		}
		return sb.String()
	}
	s := NewBLOSUM62()
	p, err := s.NewProfile(mk(300))
	if err != nil {
		b.Fatal(err)
	}
	target := mk(300)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Align(target); err != nil {
			b.Fatal(err)
		}
	}
}
