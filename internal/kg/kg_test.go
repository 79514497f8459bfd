package kg

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ids/internal/dict"
	"ids/internal/triple"
)

func iri(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
func lit(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }

func TestAddAndQueryAcrossShards(t *testing.T) {
	g := New(4)
	for i := 0; i < 100; i++ {
		g.Add(iri("http://x/s"+string(rune('a'+i%26))+string(rune('0'+i/26))), iri("http://x/p"), lit("v"))
	}
	g.Seal()
	if g.Len() != 100 {
		t.Fatalf("Len = %d, want 100", g.Len())
	}
	pid, ok := g.Dict.LookupIRI("http://x/p")
	if !ok {
		t.Fatal("predicate not in dictionary")
	}
	total := 0
	for i := 0; i < g.NumShards(); i++ {
		total += g.Shard(i).Count(triple.Pattern{P: pid})
	}
	if total != 100 {
		t.Fatalf("matched %d, want 100", total)
	}
}

func TestSubjectsColocated(t *testing.T) {
	// All triples of one subject must land on the same shard.
	g := New(8)
	subj := iri("http://x/protein1")
	for i := 0; i < 10; i++ {
		g.Add(subj, iri("http://x/p"+string(rune('0'+i))), lit("v"))
	}
	g.Seal()
	nonEmpty := 0
	for i := 0; i < g.NumShards(); i++ {
		if g.Shard(i).Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("subject spread across %d shards", nonEmpty)
	}
}

func TestShardsBalanced(t *testing.T) {
	g := New(8)
	for i := 0; i < 8000; i++ {
		g.Add(iri("http://x/s"+itoa(i)), iri("http://x/p"), lit("v"))
	}
	g.Seal()
	for i := 0; i < g.NumShards(); i++ {
		n := g.Shard(i).Len()
		if n < 500 || n > 1500 {
			t.Fatalf("shard %d has %d triples; want near 1000", i, n)
		}
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}

func TestZeroShardsClamped(t *testing.T) {
	g := New(0)
	if g.NumShards() != 1 {
		t.Fatalf("NumShards = %d", g.NumShards())
	}
}

func TestLoadNTriples(t *testing.T) {
	src := `
# a comment
<http://x/s1> <http://x/name> "Ada" .
<http://x/s1> <http://x/age> "36"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://x/s1> <http://x/label> "hi"@en .
<http://x/s2> <http://x/knows> <http://x/s1> .
_:b0 <http://x/p> "blank subject" .
<http://x/s3> <http://x/note> "esc \" quote" .
`
	g := New(2)
	n, err := g.LoadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("loaded %d, want 6", n)
	}
	g.Seal()
	// Typed literal round-trips with datatype.
	if _, ok := g.Dict.Lookup(dict.Term{Kind: dict.Literal, Value: "36", Datatype: "http://www.w3.org/2001/XMLSchema#integer"}); !ok {
		t.Fatal("typed literal lost its datatype")
	}
	// Language-tagged literal keeps its value.
	if _, ok := g.Dict.Lookup(dict.Term{Kind: dict.Literal, Value: "hi"}); !ok {
		t.Fatal("language-tagged literal missing")
	}
	if _, ok := g.Dict.Lookup(dict.Term{Kind: dict.Literal, Value: `esc " quote`}); !ok {
		t.Fatal("escaped literal mangled")
	}
}

func TestLoadNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://x/s> <http://x/p> .`,             // missing object
		`"lit" <http://x/p> <http://x/o> .`,       // literal subject
		`<http://x/s> "lit" <http://x/o> .`,       // literal predicate
		`<http://x/s> <http://x/p> <http://x/o>`,  // missing dot
		`<http://x/s <http://x/p> <http://x/o> .`, // unterminated IRI
		`<http://x/s> <http://x/p> "open .`,       // unterminated literal
		`junk`,
	}
	for _, line := range bad {
		g := New(1)
		if _, err := g.LoadNTriples(strings.NewReader(line)); err == nil {
			t.Errorf("LoadNTriples(%q) succeeded, want error", line)
		}
	}
}

func TestWriteNTriplesRoundTrip(t *testing.T) {
	g := New(2)
	g.Add(iri("http://x/s"), iri("http://x/p"), lit("v"))
	g.Add(iri("http://x/s"), iri("http://x/q"), iri("http://x/o"))
	g.Seal()
	var buf bytes.Buffer
	g.Triples(func(s, p, o dict.Term) bool {
		fmt.Fprintf(&buf, "%s %s %s .\n", s, p, o)
		return true
	})
	g2 := New(3)
	n, err := g2.LoadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("round trip loaded %d", n)
	}
	g2.Seal()
	if g2.Len() != 2 {
		t.Fatalf("round trip Len = %d", g2.Len())
	}
}

func TestPredicateStats(t *testing.T) {
	g := New(4)
	for i := 0; i < 10; i++ {
		g.Add(iri("http://x/s"+itoa(i)), iri("http://x/common"), lit("v"))
	}
	g.Add(iri("http://x/s0"), iri("http://x/rare"), lit("v"))
	g.Seal()
	stats := g.PredicateStats()
	common, _ := g.Dict.LookupIRI("http://x/common")
	rare, _ := g.Dict.LookupIRI("http://x/rare")
	if stats[common] != 10 || stats[rare] != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

func BenchmarkLoadNTriples(b *testing.B) {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		sb.WriteString("<http://x/s")
		sb.WriteString(itoa(i))
		sb.WriteString("> <http://x/p> \"value\" .\n")
	}
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New(8)
		if _, err := g.LoadNTriples(strings.NewReader(src)); err != nil {
			b.Fatal(err)
		}
	}
}
