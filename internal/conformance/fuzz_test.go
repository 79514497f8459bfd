package conformance

import (
	"testing"

	"ids/internal/sparql"
)

// FuzzConformanceExec drives arbitrary query text through the full
// differential pipeline: whatever the parser accepts must execute
// without panicking and produce identical result sets on both
// engines. FuzzSPARQLParse owns the front end; this target owns
// everything behind it.
func FuzzConformanceExec(f *testing.F) {
	for _, q := range Generate(7, 48) {
		f.Add(q.Text)
	}
	// Hand-picked shapes past generator coverage: empty projection
	// windows, self-joins, null-extending OPTIONAL under BIND.
	for _, q := range []string{
		`SELECT ?s WHERE { ?s <http://c/links> ?s . }`,
		`SELECT ?s ?w WHERE { ?s <http://c/score> ?v . OPTIONAL { ?s <http://c/desc> ?d . } BIND(?v + 1 AS ?w) } ORDER BY ?w LIMIT 3`,
		`SELECT DISTINCT ?t WHERE { { ?s <http://c/tag> ?t . } UNION { ?s <http://c/alt> ?t . } } ORDER BY ?t LIMIT 0`,
	} {
		f.Add(q)
	}
	w, err := NewWorld(2)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1024 {
			t.Skip("oversized input")
		}
		q, err := sparql.Parse(input)
		if err != nil {
			return // front-end rejections are FuzzSPARQLParse's domain
		}
		// Cap the join explosion an adversarial input can demand of
		// the tiny world graph: each all-wildcard pattern multiplies
		// the intermediate result by the triple count.
		pats, wild := 0, 0
		for _, el := range q.Where {
			if tp, ok := el.(sparql.TriplePattern); ok {
				pats++
				if tp.S.IsVar && tp.P.IsVar && tp.O.IsVar {
					wild++
				}
			}
		}
		if pats > 6 || wild > 2 {
			t.Skip("pathological join shape")
		}
		o := w.Run(Query{Text: input, Category: "fuzz", Expect: BucketOK})
		switch o.Bucket {
		case BucketCrash:
			t.Fatalf("crash on %q: %s", input, o.Detail)
		case BucketWrongAnswer:
			t.Fatalf("engine divergence on %q: %s", input, o.Detail)
		}
	})
}
