package conformance

import (
	"strings"
	"testing"
)

// sweepSeed/sweepN: the in-suite subset. CI's race job runs this; the
// full 2000-query sweep lives behind `ids-bench -conformance`.
const (
	sweepSeed = 1
	sweepN    = 500
)

func testWorld(t *testing.T, ranks int) *World {
	t.Helper()
	w, err := NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func dumpFailures(t *testing.T, rep *Report) {
	t.Helper()
	for _, o := range rep.Failures {
		t.Errorf("%s [%s] category=%s expect=%s\n  query: %s\n  detail: %s",
			o.Priority, o.Bucket, o.Query.Category, o.Query.Expect, o.Query.Text, o.Detail)
	}
}

// TestGenerateDeterministic pins the generator contract: same seed,
// same corpus, and every declared category is actually emitted at
// this corpus size.
func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(sweepSeed, sweepN), Generate(sweepSeed, sweepN)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("corpus not deterministic at query %d:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
	seen := map[string]int{}
	for _, q := range a {
		seen[q.Category]++
	}
	for _, c := range categories {
		if seen[c.name] == 0 {
			t.Errorf("category %q never emitted in %d queries", c.name, sweepN)
		}
	}
	if seen[CategoryUDF] != sweepN/10 {
		t.Errorf("udf stream: %d queries, want %d", seen[CategoryUDF], sweepN/10)
	}
}

// TestConformanceSweep is the differential property test: every query
// the harness expects to succeed must produce identical result sets
// on the row and columnar engines, every rejection must carry its
// stable tag, and nothing may crash. Runs under -race in CI.
func TestConformanceSweep(t *testing.T) {
	w := testWorld(t, 2)
	qs := Generate(sweepSeed, sweepN)
	rep := w.RunAll(sweepSeed, qs)

	if n := rep.P0Count(); n > 0 {
		dumpFailures(t, rep)
		t.Fatalf("%d P0 outcomes (crash=%d wrong-answer=%d)",
			n, rep.Buckets[BucketCrash], rep.Buckets[BucketWrongAnswer])
	}
	for _, cs := range rep.Categories {
		if cs.Pass != cs.Total {
			dumpFailures(t, rep)
			t.Fatalf("category %s: %d/%d queries in expected bucket %q", cs.Name, cs.Pass, cs.Total, cs.Expect)
		}
	}
	// The burn-down proof: BIND and VALUES are differential-verified
	// supported features now, not unsupported tags.
	for _, name := range []string{"bind", "values"} {
		cs, okc := rep.Category(name)
		if !okc || cs.Expect != BucketOK {
			t.Fatalf("category %s must expect %q (got %+v)", name, BucketOK, cs)
		}
	}
}

// TestTaxonomyBucketsDirect pins one hand-written query per bucket so
// the classifier itself is under test, independent of the generator.
func TestTaxonomyBucketsDirect(t *testing.T) {
	w := testWorld(t, 1)
	cases := []struct {
		query  string
		bucket string
		prio   string
	}{
		{`SELECT ?s WHERE { ?s <http://c/tag> "tag0" . }`, BucketOK, ""},
		{`SELECT ?s WHERE { ?s <http://c/tag> ?t . MINUS { ?s ?p ?o . } }`, "unsupported-feature/minus", "P1"},
		{`ASK { ?s ?p ?o . }`, "unsupported-feature/ask", "P1"},
		{`SELECT ?s WHERE { ?s <http://c/tag`, BucketParseError, "P1"},
		// Parses, but the planner rejects the never-bound projection.
		{`SELECT ?ghost WHERE { ?s <http://c/tag> ?t . }`, BucketPlanError, "P1"},
		// Parses, but execution rejects the unknown vector space.
		{`SELECT ?c WHERE { SIMILAR(?c, [0 0], 3, "nope") . }`, BucketPlanError, "P1"},
	}
	for _, tc := range cases {
		o := w.Run(Query{Text: tc.query, Category: "direct", Expect: BucketOK})
		if o.Bucket != tc.bucket {
			t.Errorf("%q: bucket %q (detail %q), want %q", tc.query, o.Bucket, o.Detail, tc.bucket)
		}
		if o.Priority != tc.prio {
			t.Errorf("%q: priority %q, want %q", tc.query, o.Priority, tc.prio)
		}
	}
}

// TestReportMarkdownRoundTrip: the rates CI parses out of the
// committed CONFORMANCE.md are the rates the report computed.
func TestReportMarkdownRoundTrip(t *testing.T) {
	w := testWorld(t, 2)
	rep := w.RunAll(sweepSeed, Generate(sweepSeed, 200))
	md := rep.Markdown()
	rates, err := ParseMarkdownRates(md)
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != len(rep.Categories) {
		t.Fatalf("parsed %d rates, report has %d categories", len(rates), len(rep.Categories))
	}
	for _, cs := range rep.Categories {
		got, okc := rates[cs.Name]
		if !okc {
			t.Fatalf("category %s missing from parsed rates", cs.Name)
		}
		if d := got - cs.Rate(); d > 0.006 || d < -0.006 { // %.2f rounding slack
			t.Fatalf("category %s: parsed rate %.4f, want %.4f", cs.Name, got, cs.Rate())
		}
	}
}

// TestCompareGate proves the regression gate logic both ways: a
// report gates cleanly against its own markdown, and fails against a
// doctored baseline demanding an unattainable rate.
func TestCompareGate(t *testing.T) {
	w := testWorld(t, 2)
	rep := w.RunAll(sweepSeed, Generate(sweepSeed, 200))
	md := rep.Markdown()
	if err := Compare(md, rep); err != nil {
		t.Fatalf("self-compare must pass: %v", err)
	}
	// Inject a regression: the baseline claims a category this run
	// doesn't have, and bumps an existing rate beyond 100%.
	doctored := strings.Replace(md, "| bind |", "| bind-vanished |", 1) +
		"| bind | 1 | ok | 1 | 101.00% |\n"
	err := Compare(doctored, rep)
	if err == nil {
		t.Fatal("doctored baseline must trip the gate")
	}
	for _, want := range []string{"bind-vanished", "regressed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("gate error missing %q: %v", want, err)
		}
	}
	if _, err := ParseMarkdownRates("no table here"); err == nil {
		t.Fatal("empty baseline must be an error, not a silent pass")
	}
}
