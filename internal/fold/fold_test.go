package fold

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

const testSeq = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQAPILSRVGDGTQDNLSGAEKAVQ"

func TestPredictBasics(t *testing.T) {
	st, err := Predict(testSeq)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.CA) != len(testSeq) || len(st.SS) != len(testSeq) || len(st.Confidence) != len(testSeq) {
		t.Fatalf("output lengths mismatch: %d %d %d vs %d", len(st.CA), len(st.SS), len(st.Confidence), len(testSeq))
	}
}

func TestPredictEmpty(t *testing.T) {
	if _, err := Predict(""); !errors.Is(err, ErrEmptySequence) {
		t.Fatalf("err = %v, want ErrEmptySequence", err)
	}
}

func TestPredictDeterministic(t *testing.T) {
	a, err := Predict(testSeq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(testSeq)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.CA {
		if a.CA[i] != b.CA[i] {
			t.Fatalf("residue %d coordinates differ between runs", i)
		}
	}
}

func TestDifferentSequencesDiffer(t *testing.T) {
	a, _ := Predict(testSeq)
	b, _ := Predict(testSeq[:len(testSeq)-1] + "W")
	same := true
	for i := range b.CA {
		if a.CA[i] != b.CA[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different sequences produced identical traces")
	}
}

func TestHelixFormerIsHelical(t *testing.T) {
	// Poly-alanine/glutamate is a strong helix former.
	st, _ := Predict(strings.Repeat("AEEA", 10))
	helix := 0
	for _, s := range st.SS {
		if s == Helix {
			helix++
		}
	}
	if helix < len(st.SS)/2 {
		t.Fatalf("poly-AE helix fraction %d/%d too low", helix, len(st.SS))
	}
}

func TestSheetFormerIsExtended(t *testing.T) {
	// Poly-valine/isoleucine strongly favors sheet.
	st, _ := Predict(strings.Repeat("VIVI", 10))
	sheet := 0
	for _, s := range st.SS {
		if s == Sheet {
			sheet++
		}
	}
	if sheet < len(st.SS)/2 {
		t.Fatalf("poly-VI sheet fraction %d/%d too low", sheet, len(st.SS))
	}
	// Extended chains have larger radius of gyration than helices of
	// the same length.
	helical, _ := Predict(strings.Repeat("AEEA", 10))
	if radiusOfGyration(st) <= radiusOfGyration(helical) {
		t.Fatalf("sheet Rg %f <= helix Rg %f", radiusOfGyration(st), radiusOfGyration(helical))
	}
}

func TestConsecutiveCADistancesBounded(t *testing.T) {
	st, _ := Predict(testSeq)
	for i := 1; i < len(st.CA); i++ {
		d := Dist(st.CA[i], st.CA[i-1])
		if d < 0.5 || d > 8 {
			t.Fatalf("CA(%d)-CA(%d) distance %f implausible", i-1, i, d)
		}
	}
}

func TestConfidenceRange(t *testing.T) {
	st, _ := Predict(testSeq)
	for i, c := range st.Confidence {
		if c < 0 || c > 100 {
			t.Fatalf("confidence[%d] = %f out of range", i, c)
		}
	}
	mean := 0.0
	for _, c := range st.Confidence {
		mean += c / float64(len(st.Confidence))
	}
	if mean < 30 || mean > 100 {
		t.Fatalf("mean confidence %f out of range", mean)
	}
	// Termini should be less confident than the middle.
	mid := len(st.Confidence) / 2
	if st.Confidence[0] >= st.Confidence[mid] {
		t.Fatalf("terminus confidence %f >= middle %f", st.Confidence[0], st.Confidence[mid])
	}
}

func TestPocketCenterFinite(t *testing.T) {
	st, _ := Predict(testSeq)
	c := st.PocketCenter()
	if math.IsNaN(c.X) || math.IsNaN(c.Y) || math.IsNaN(c.Z) {
		t.Fatalf("pocket center has NaN: %+v", c)
	}
	// No-hydrophobic fallback.
	st2, _ := Predict("GGGGGGGG")
	c2 := st2.PocketCenter()
	if math.IsNaN(c2.X) {
		t.Fatalf("fallback pocket center NaN")
	}
}

func TestSecStructString(t *testing.T) {
	if Helix.String() != "H" || Sheet.String() != "E" || Coil.String() != "C" {
		t.Fatal("SecStruct.String mismatch")
	}
}

func TestPointOps(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, 5, 6}
	if got := p.Add(q); got != (Point{5, 7, 9}) {
		t.Fatalf("Add = %+v", got)
	}
	if got := q.Sub(p); got != (Point{3, 3, 3}) {
		t.Fatalf("Sub = %+v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4, 6}) {
		t.Fatalf("Scale = %+v", got)
	}
	if d := Dist(p, p); d != 0 {
		t.Fatalf("Dist(p,p) = %f", d)
	}
}

// Property: Predict never produces NaN coordinates and always yields
// one CA per residue for arbitrary upper-case sequences.
func TestPredictNoNaNProperty(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 200 {
			raw = raw[:200]
		}
		letters := "ACDEFGHIKLMNPQRSTVWY"
		b := make([]byte, len(raw))
		for i, c := range raw {
			b[i] = letters[int(c)%len(letters)]
		}
		st, err := Predict(string(b))
		if err != nil || len(st.CA) != len(b) {
			return false
		}
		for _, p := range st.CA {
			if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsNaN(p.Z) ||
				math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) || math.IsInf(p.Z, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPredict300(b *testing.B) {
	seq := strings.Repeat(testSeq, 6)[:300]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(seq); err != nil {
			b.Fatal(err)
		}
	}
}

// radiusOfGyration returns the Cα radius of gyration, a compactness
// sanity metric.
func radiusOfGyration(st *Structure) float64 {
	var c Point
	for _, p := range st.CA {
		c = c.Add(p)
	}
	c = c.Scale(1 / float64(len(st.CA)))
	ss := 0.0
	for _, p := range st.CA {
		d := Dist(p, c)
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(st.CA)))
}
