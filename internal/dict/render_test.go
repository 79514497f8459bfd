package dict

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// fmtString is Term.String as it was before the appender: the reference
// the display form must keep matching byte for byte.
func fmtString(t Term) string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	default:
		if t.Datatype != "" {
			return fmt.Sprintf("%q^^<%s>", t.Value, t.Datatype)
		}
		return fmt.Sprintf("%q", t.Value)
	}
}

// checkTermJSON holds the two rendering contracts for one term.
func checkTermJSON(t *testing.T, tm Term) {
	t.Helper()
	display := tm.String()
	if want := fmtString(tm); display != want {
		t.Fatalf("String() = %q, fmt rendering %q (term %#v)", display, want, tm)
	}
	if got := string(tm.AppendString([]byte("x"))); got != "x"+display {
		t.Fatalf("AppendString onto a prefix = %q, want %q", got, "x"+display)
	}
	ref, err := json.Marshal(display)
	if err != nil {
		t.Fatal(err)
	}
	var want, got string
	if err := json.Unmarshal(ref, &want); err != nil {
		t.Fatal(err)
	}
	enc := tm.AppendJSON(nil)
	if err := json.Unmarshal(enc, &got); err != nil {
		t.Fatalf("AppendJSON wrote invalid JSON %q: %v (term %#v)", enc, err, tm)
	}
	if got != want {
		t.Fatalf("AppendJSON %q decodes to %q, json.Marshal(String()) to %q (term %#v)", enc, got, want, tm)
	}
	if err := json.Unmarshal(AppendJSONString(nil, display), &got); err != nil || got != want {
		t.Fatalf("AppendJSONString(%q) decodes to %q, %v; want %q", display, got, err, want)
	}
}

var termJSONSeeds = []Term{
	{Kind: IRI, Value: "http://purl.uniprot.org/uniprot/P29274"},
	{Kind: IRI, Value: ""},
	{Kind: IRI, Value: `http://x/a"b\c`},
	{Kind: IRI, Value: "http://x/\x00\x1f\x7f\n"},
	{Kind: IRI, Value: "http://x/café/ /\U0001F9EC"},
	{Kind: IRI, Value: "http://x/\xff\xfe-bad-utf8-\xc3"},
	{Kind: IRI, Value: "http://x/<a>&b"},
	{Kind: Blank, Value: "b0"},
	{Kind: Blank, Value: "b\"\\\t\xf0"},
	{Kind: Literal, Value: "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ"},
	{Kind: Literal, Value: ""},
	{Kind: Literal, Value: `say "hi" \ bye`},
	{Kind: Literal, Value: "tab\there\nnewline\r\x00\x01\x7f"},
	{Kind: Literal, Value: "naïve 日本語   � \U0001F600"},
	{Kind: Literal, Value: "bad \xff utf8 \xe2\x82"},
	{Kind: Literal, Value: "<tag> & 'quote'"},
	{Kind: Literal, Value: "3.14", Datatype: "http://www.w3.org/2001/XMLSchema#double"},
	{Kind: Literal, Value: `q"q`, Datatype: "http://x/dt\"\\\x01\xff"},
	{Kind: Literal, Value: "true", Datatype: ""},
}

func TestTermJSON(t *testing.T) {
	for _, tm := range termJSONSeeds {
		checkTermJSON(t, tm)
	}
	// The fast path is what it claims: delimiters around the bytes.
	tm := Term{Kind: Literal, Value: "ACDEFGHIKLMNPQRSTVWY", Datatype: "http://x/seq"}
	if got, want := string(tm.AppendJSON(nil)), `"\"ACDEFGHIKLMNPQRSTVWY\"^^<http://x/seq>"`; got != want {
		t.Fatalf("plain literal JSON = %s, want %s", got, want)
	}
	if got, want := string(Term{Kind: IRI, Value: "http://x/e1"}.AppendJSON(nil)), `"<http://x/e1>"`; got != want {
		t.Fatalf("plain IRI JSON = %s, want %s", got, want)
	}
}

func FuzzTermJSON(f *testing.F) {
	for _, tm := range termJSONSeeds {
		f.Add(uint8(tm.Kind), tm.Value, tm.Datatype)
	}
	f.Fuzz(func(t *testing.T, kind uint8, value, datatype string) {
		checkTermJSON(t, Term{Kind: Kind(kind % 3), Value: value, Datatype: datatype})
	})
}

// TestSnapshotDecodesWhileEncoding reads a snapshot, lock-free, while
// writers grow the dictionary past it (run under -race).
func TestSnapshotDecodesWhileEncoding(t *testing.T) {
	d := New()
	for i := 0; i < 100; i++ {
		d.Encode(Term{Kind: IRI, Value: fmt.Sprintf("http://x/%d", i)})
	}
	snap := d.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				d.Encode(Term{Kind: IRI, Value: fmt.Sprintf("http://y/%d/%d", w, i)})
			}
		}(w)
	}
	for round := 0; round < 50; round++ {
		for id := ID(1); id <= 100; id++ {
			tm, ok := snap.Decode(id)
			if want := fmt.Sprintf("http://x/%d", id-1); !ok || tm.Value != want {
				t.Fatalf("snapshot Decode(%d) = %v, %v; want %s", id, tm, ok, want)
			}
		}
	}
	wg.Wait()
	if _, ok := snap.Decode(101); ok {
		t.Fatal("snapshot decoded an ID assigned after it was taken")
	}
	if _, ok := snap.Decode(None); ok {
		t.Fatal("snapshot decoded None")
	}
	if tm, ok := d.Snapshot().Decode(101); !ok || tm.Kind != IRI {
		t.Fatalf("fresh snapshot Decode(101) = %v, %v", tm, ok)
	}
}
