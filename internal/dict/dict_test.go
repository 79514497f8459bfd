package dict

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := New()
	terms := []Term{
		{Kind: IRI, Value: "http://example.org/p1"},
		{Kind: Literal, Value: "hello"},
		{Kind: Literal, Value: "3.14", Datatype: "http://www.w3.org/2001/XMLSchema#double"},
		{Kind: Blank, Value: "b0"},
	}
	ids := make([]ID, len(terms))
	for i, tm := range terms {
		ids[i] = d.Encode(tm)
		if ids[i] == None {
			t.Fatalf("Encode returned None for %v", tm)
		}
	}
	for i, tm := range terms {
		got, ok := d.Decode(ids[i])
		if !ok || got != tm {
			t.Fatalf("Decode(%d) = %v,%v want %v", ids[i], got, ok, tm)
		}
	}
	if d.Len() != len(terms) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(terms))
	}
}

func TestEncodeIsIdempotent(t *testing.T) {
	d := New()
	a := d.Encode(Term{Kind: IRI, Value: "http://x/a"})
	b := d.Encode(Term{Kind: IRI, Value: "http://x/a"})
	if a != b {
		t.Fatalf("same IRI got two ids: %d %d", a, b)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

func TestKindsDoNotCollide(t *testing.T) {
	d := New()
	iri := d.Encode(Term{Kind: IRI, Value: "x"})
	lit := d.Encode(Term{Kind: Literal, Value: "x"})
	blank := d.Encode(Term{Kind: Blank, Value: "x"})
	if iri == lit || iri == blank || lit == blank {
		t.Fatalf("kind collision: iri=%d lit=%d blank=%d", iri, lit, blank)
	}
}

func TestTypedLiteralsDistinct(t *testing.T) {
	d := New()
	plain := d.Encode(Term{Kind: Literal, Value: "1"})
	typed := d.Encode(Term{Kind: Literal, Value: "1", Datatype: "http://www.w3.org/2001/XMLSchema#integer"})
	if plain == typed {
		t.Fatal("plain and typed literal collided")
	}
}

func TestLookupWithoutEncode(t *testing.T) {
	d := New()
	if _, ok := d.LookupIRI("http://nope"); ok {
		t.Fatal("Lookup found a term never encoded")
	}
	d.Encode(Term{Kind: IRI, Value: "http://yes"})
	if id, ok := d.LookupIRI("http://yes"); !ok || id == None {
		t.Fatal("Lookup missed an encoded term")
	}
}

func TestDecodeInvalid(t *testing.T) {
	d := New()
	if _, ok := d.Decode(None); ok {
		t.Fatal("Decode(None) succeeded")
	}
	if _, ok := d.Decode(99); ok {
		t.Fatal("Decode out-of-range succeeded")
	}
}

func TestMustDecodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDecode did not panic on unknown id")
		}
	}()
	New().MustDecode(5)
}

func TestTermString(t *testing.T) {
	cases := []struct {
		in   Term
		want string
	}{
		{Term{Kind: IRI, Value: "http://x/a"}, "<http://x/a>"},
		{Term{Kind: Literal, Value: "hi"}, `"hi"`},
		{Term{Kind: Literal, Value: "1", Datatype: "http://t"}, `"1"^^<http://t>`},
		{Term{Kind: Blank, Value: "n1"}, "_:n1"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	if IRI.String() != "iri" || Literal.String() != "literal" || Blank.String() != "blank" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestConcurrentEncode(t *testing.T) {
	d := New()
	const workers = 16
	const perWorker = 500
	var wg sync.WaitGroup
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]ID, perWorker)
			for i := 0; i < perWorker; i++ {
				// Heavy overlap between workers: only 100 distinct terms.
				ids[w][i] = d.Encode(Term{Kind: IRI, Value: fmt.Sprintf("http://x/%d", i%100)})
			}
		}(w)
	}
	wg.Wait()
	if d.Len() != 100 {
		t.Fatalf("Len = %d, want 100", d.Len())
	}
	for w := 1; w < workers; w++ {
		for i := range ids[w] {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d item %d: id %d != %d", w, i, ids[w][i], ids[0][i])
			}
		}
	}
}

// Property: every encoded term decodes to itself, and re-encoding the
// decoded term yields the same ID.
func TestEncodeDecodeProperty(t *testing.T) {
	d := New()
	f := func(value, datatype string, kindSel uint8) bool {
		tm := Term{Kind: Kind(kindSel % 3), Value: value}
		if tm.Kind == Literal {
			tm.Datatype = datatype
		}
		id := d.Encode(tm)
		back, ok := d.Decode(id)
		if !ok || back != tm {
			return false
		}
		return d.Encode(back) == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeNew(b *testing.B) {
	d := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Encode(Term{Kind: IRI, Value: fmt.Sprintf("http://bench/%d", i)})
	}
}

func BenchmarkEncodeHit(b *testing.B) {
	d := New()
	d.Encode(Term{Kind: IRI, Value: "http://bench/hot"})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Encode(Term{Kind: IRI, Value: "http://bench/hot"})
	}
}
