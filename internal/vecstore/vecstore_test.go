package vecstore

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustStore(t *testing.T, dim int, m Metric) *Store {
	t.Helper()
	s, err := New(dim, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAddGet(t *testing.T) {
	s := mustStore(t, 3, Cosine)
	if err := s.Add("a", []float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[2] != 3 {
		t.Fatalf("Get = %v", got)
	}
	// Stored copy is isolated from caller mutation.
	got[0] = 99
	again, _ := s.Get("a")
	if again[0] != 1 {
		t.Fatal("stored vector aliased caller slice")
	}
}

func TestAddErrors(t *testing.T) {
	s := mustStore(t, 2, Cosine)
	if err := s.Add("a", []float32{1}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("err = %v", err)
	}
	_ = s.Add("a", []float32{1, 2})
	if err := s.Add("a", []float32{3, 4}); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, err := New(0, Cosine); err == nil {
		t.Fatal("zero dim accepted")
	}
}

func TestSearchCosine(t *testing.T) {
	s := mustStore(t, 2, Cosine)
	_ = s.Add("east", []float32{1, 0})
	_ = s.Add("north", []float32{0, 1})
	_ = s.Add("northeast", []float32{1, 1})
	hits, err := s.Search([]float32{2, 0.1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0].Key != "east" {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].Score < hits[1].Score {
		t.Fatal("hits not sorted by score")
	}
	if hits[0].Score > 1+1e-9 {
		t.Fatalf("cosine score %f > 1", hits[0].Score)
	}
}

func TestSearchL2(t *testing.T) {
	s := mustStore(t, 2, L2)
	_ = s.Add("origin", []float32{0, 0})
	_ = s.Add("far", []float32{10, 10})
	hits, err := s.Search([]float32{1, 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hits[0].Key != "origin" {
		t.Fatalf("nearest = %v", hits)
	}
	if want := -math.Sqrt(2); math.Abs(hits[0].Score-want) > 1e-6 {
		t.Fatalf("score = %f, want %f", hits[0].Score, want)
	}
}

func TestSearchDot(t *testing.T) {
	s := mustStore(t, 2, Dot)
	_ = s.Add("small", []float32{1, 1})
	_ = s.Add("big", []float32{10, 10})
	hits, _ := s.Search([]float32{1, 1}, 1)
	if hits[0].Key != "big" {
		t.Fatalf("dot metric should prefer larger magnitudes: %v", hits)
	}
}

func TestSearchErrors(t *testing.T) {
	s := mustStore(t, 2, Cosine)
	if _, err := s.Search([]float32{1, 2}, 3); !errors.Is(err, ErrEmpty) {
		t.Fatalf("err = %v", err)
	}
	_ = s.Add("a", []float32{1, 2})
	if _, err := s.Search([]float32{1}, 1); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestSearchKLargerThanStore(t *testing.T) {
	s := mustStore(t, 2, Cosine)
	_ = s.Add("a", []float32{1, 0})
	hits, err := s.Search([]float32{1, 0}, 10)
	if err != nil || len(hits) != 1 {
		t.Fatalf("hits = %v, %v", hits, err)
	}
}

func randomFill(s *Store, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		v := make([]float32, s.Dim())
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		_ = s.Add(fmt.Sprintf("v%d", i), v)
	}
}

func TestMetricString(t *testing.T) {
	if Cosine.String() != "cosine" || Dot.String() != "dot" || L2.String() != "l2" {
		t.Fatal("Metric.String mismatch")
	}
}

// Property: Search returns at most k hits, sorted descending, each a
// stored key, and the top hit matches an exhaustive argmax.
func TestSearchProperties(t *testing.T) {
	s := mustStore(t, 4, Cosine)
	randomFill(s, 120, 21)
	f := func(qr [4]int8, kRaw uint8) bool {
		q := []float32{float32(qr[0]), float32(qr[1]), float32(qr[2]), float32(qr[3])}
		k := int(kRaw%10) + 1
		hits, err := s.Search(q, k)
		if err != nil {
			return false
		}
		if len(hits) > k {
			return false
		}
		for i := 1; i < len(hits); i++ {
			if hits[i].Score > hits[i-1].Score {
				return false
			}
		}
		for _, h := range hits {
			if _, err := s.Get(h.Key); err != nil {
				return false
			}
		}
		return true
	}
	if err := quickCheck(f, 40); err != nil {
		t.Fatal(err)
	}
}

func quickCheck(f any, max int) error {
	return quick.Check(f, &quick.Config{MaxCount: max})
}

func BenchmarkSearchBrute(b *testing.B) {
	s, _ := New(64, Cosine)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		v := make([]float32, 64)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		_ = s.Add(fmt.Sprintf("v%d", i), v)
	}
	q := make([]float32, 64)
	for j := range q {
		q[j] = float32(rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}
