package plan

import (
	"strconv"
	"testing"

	"ids/internal/sparql"
)

// fpOf parses and fingerprints, failing the test on parse errors.
func fpOf(t *testing.T, qs string) uint64 {
	t.Helper()
	q, err := sparql.Parse(qs)
	if err != nil {
		t.Fatalf("parse %q: %v", qs, err)
	}
	return Fingerprint(q)
}

// TestFingerprintLiteralInvariance: literal-only rewrites — the shape
// an iterative session re-issues — must not change the fingerprint.
func TestFingerprintLiteralInvariance(t *testing.T) {
	pairs := [][2]string{
		{
			`SELECT ?s WHERE { ?s <http://x/name> "alice" . }`,
			`SELECT ?s WHERE { ?s <http://x/name> "bob" . }`,
		},
		{
			`SELECT ?s WHERE { ?s <http://x/age> ?v . FILTER(?v > 10) }`,
			`SELECT ?s WHERE { ?s <http://x/age> ?v . FILTER(?v > 99) }`,
		},
		{
			`SELECT ?x WHERE { SIMILAR(?x, [0.1 0.2 0.3], 10) . }`,
			`SELECT ?x WHERE { SIMILAR(?x, [9.9 8.8 7.7], 10) . }`,
		},
		{
			// K buckets to the next power of two: 9..16 are one shape.
			`SELECT ?x WHERE { SIMILAR(?x, [1 2], 9) . }`,
			`SELECT ?x WHERE { SIMILAR(?x, [1 2], 16) . }`,
		},
		{
			// Pagination: LIMIT/OFFSET bucket, so a cursor sweep within a
			// bucket stays one shape.
			`SELECT ?s WHERE { ?s ?p ?o . } LIMIT 10 OFFSET 3`,
			`SELECT ?s WHERE { ?s ?p ?o . } LIMIT 16 OFFSET 4`,
		},
	}
	for _, p := range pairs {
		if a, b := fpOf(t, p[0]), fpOf(t, p[1]); a != b {
			t.Errorf("literal-only rewrite changed fingerprint:\n  %s -> %016x\n  %s -> %016x",
				p[0], a, p[1], b)
		}
	}
}

// TestFingerprintConjunctOrderCanonical: reordering triple patterns or
// FILTER conjuncts (semantically neutral) must not change the
// fingerprint.
func TestFingerprintConjunctOrderCanonical(t *testing.T) {
	pairs := [][2]string{
		{
			`SELECT ?s WHERE { ?s <http://x/a> ?u . ?s <http://x/b> ?v . }`,
			`SELECT ?s WHERE { ?s <http://x/b> ?v . ?s <http://x/a> ?u . }`,
		},
		{
			`SELECT ?s WHERE { ?s <http://x/p> ?v . FILTER(?v > 1 && ?v < 9) }`,
			`SELECT ?s WHERE { ?s <http://x/p> ?v . FILTER(?v < 9 && ?v > 1) }`,
		},
	}
	for _, p := range pairs {
		if a, b := fpOf(t, p[0]), fpOf(t, p[1]); a != b {
			t.Errorf("conjunct reorder changed fingerprint:\n  %s -> %016x\n  %s -> %016x",
				p[0], a, p[1], b)
		}
	}
}

// TestFingerprintStructuralEdits: structural edits must change the
// fingerprint.
func TestFingerprintStructuralEdits(t *testing.T) {
	base := `SELECT ?s WHERE { ?s <http://x/name> "alice" . }`
	variants := []string{
		`SELECT ?s WHERE { ?s <http://x/other> "alice" . }`,           // predicate
		`SELECT ?s WHERE { ?s <http://x/name> ?o . }`,                 // literal → var
		`SELECT ?s ?o WHERE { ?s <http://x/name> "alice" . }`,         // projection (SELECT * shape)
		`SELECT ?s WHERE { ?s <http://x/name> "alice" . } LIMIT 10`,   // modifier
		`SELECT DISTINCT ?s WHERE { ?s <http://x/name> "alice" . }`,   // distinct
		`SELECT ?s WHERE { ?s <http://x/name> "alice" . ?s ?p ?o . }`, // extra pattern
		`SELECT ?s WHERE { ?s <http://x/name> <http://x/alice> . }`,   // literal → IRI
	}
	b := fpOf(t, base)
	for _, v := range variants {
		if fpOf(t, v) == b {
			t.Errorf("structural edit kept fingerprint %016x:\n  base:    %s\n  variant: %s", b, base, v)
		}
	}
	// Distinct shapes must not collide with each other either.
	fps := map[uint64]string{b: base}
	for _, v := range variants {
		fp := fpOf(t, v)
		if prev, dup := fps[fp]; dup {
			t.Errorf("fingerprint collision %016x between %q and %q", fp, prev, v)
		}
		fps[fp] = v
	}
}

// TestFingerprintDeterministic: the same query fingerprints identically
// across repeated parses (no map-order or pointer dependence).
func TestFingerprintDeterministic(t *testing.T) {
	qs := `SELECT ?s ?v WHERE {
		?s <http://x/a> ?u . ?s <http://x/b> ?v . ?u <http://x/c> "lit" .
		FILTER(?v > 3 && ?v < 100 && udf(?v))
		OPTIONAL { ?s <http://x/d> ?w . }
		{ ?s <http://x/e> ?m . } UNION { ?s <http://x/f> ?m . }
	} ORDER BY DESC(?v) LIMIT 10`
	want := fpOf(t, qs)
	for i := 0; i < 20; i++ {
		if got := fpOf(t, qs); got != want {
			t.Fatalf("fingerprint unstable: %016x then %016x", want, got)
		}
	}
}

func TestFingerprintFormatRoundTrip(t *testing.T) {
	fp := fpOf(t, `SELECT ?s WHERE { ?s ?p ?o . }`)
	s := FormatFingerprint(fp)
	if len(s) != 16 {
		t.Fatalf("FormatFingerprint(%d) = %q, want 16 hex chars", fp, s)
	}
	if got, err := strconv.ParseUint(s, 16, 64); err != nil || got != fp {
		t.Fatalf("round trip: %016x -> %q -> %016x (%v)", fp, s, got, err)
	}
	if FormatFingerprint(0) != "" {
		t.Fatal("zero fingerprint not rendered empty")
	}
}

func TestBucketPow2(t *testing.T) {
	cases := map[int]int{-1: 0, 0: 0, 1: 1, 2: 2, 3: 4, 9: 16, 16: 16, 17: 32}
	for in, want := range cases {
		if got := bucketPow2(in); got != want {
			t.Errorf("bucketPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// FuzzFingerprint: any parseable query fingerprints without panicking,
// deterministically, and Build stamps the same value on the plan.
func FuzzFingerprint(f *testing.F) {
	for _, seed := range []string{
		`SELECT ?s WHERE { ?s ?p ?o . }`,
		`SELECT ?s WHERE { ?s <http://x/name> "alice" . }`,
		`PREFIX x: <http://x/> SELECT ?s WHERE { ?s x:p "v" . FILTER(?s != x:a) }`,
		`SELECT ?s WHERE { ?s <http://x/p> ?v . FILTER(?v > 3 && ?v < 9 || !(?v = 5)) } ORDER BY DESC(?v)`,
		`SELECT ?x ?n WHERE { SIMILAR(?x, "aspirin", 5, "fp") . ?x <http://x/name> ?n . }`,
		`SELECT ?x WHERE { SIMILAR(?x, [0.1 -2 3.5e-1 4], 3) . }`,
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o . } GROUP BY ?s`,
		`SELECT ?s WHERE { { ?s <http://x/a> ?o . } UNION { ?s <http://x/b> ?o . } OPTIONAL { ?s <http://x/c> ?d . } }`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		q, err := sparql.Parse(input)
		if err != nil {
			return
		}
		fp := Fingerprint(q)
		if again := Fingerprint(q); again != fp {
			t.Fatalf("non-deterministic fingerprint for %q: %016x vs %016x", input, fp, again)
		}
		if fp2 := FingerprintString(input); fp2 != fp {
			t.Fatalf("FingerprintString mismatch for %q: %016x vs %016x", input, fp, fp2)
		}
	})
}
