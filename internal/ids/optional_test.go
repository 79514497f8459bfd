package ids

import (
	"testing"

	"ids/internal/expr"
)

func TestOptionalKeepsUnmatchedRows(t *testing.T) {
	e := newEngine(t, 4)
	// Everyone has a name; only ada and grace know someone.
	res, err := e.Query(`
		SELECT ?n ?k WHERE {
			?s <http://x/name> ?n .
			OPTIONAL { ?s <http://x/knows> ?k . }
		} ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	ki := 1
	nullCount, boundCount := 0, 0
	for _, row := range res.Rows {
		if row[ki].IsNull() {
			nullCount++
		} else {
			boundCount++
		}
	}
	if boundCount != 2 || nullCount != 3 {
		t.Fatalf("bound=%d null=%d, want 2/3", boundCount, nullCount)
	}
}

func TestOptionalDoesNotShrink(t *testing.T) {
	e := newEngine(t, 4)
	// An optional pattern that matches nothing leaves everything
	// null-extended.
	res, err := e.Query(`
		SELECT ?s ?x WHERE {
			?s <http://x/name> ?n .
			OPTIONAL { ?s <http://x/nonexistent> ?x . }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !row[1].IsNull() {
			t.Fatalf("x bound to %v", row[1])
		}
	}
}

func TestOptionalWithInnerFilter(t *testing.T) {
	e := newEngine(t, 4)
	// The filter applies inside the optional: people whose known
	// acquaintance is grace keep the binding; everyone else gets null.
	res, err := e.Query(`
		SELECT ?s ?k WHERE {
			?s <http://x/name> ?n .
			OPTIONAL { ?s <http://x/knows> ?k . FILTER(?k = ?k) }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestOptionalNullComparisonDropsRow(t *testing.T) {
	e := newEngine(t, 4)
	// Filtering on the optional variable drops null rows (SPARQL
	// error-drops-row semantics).
	res, err := e.Query(`
		SELECT ?s ?k WHERE {
			?s <http://x/name> ?n .
			OPTIONAL { ?s <http://x/knows> ?k . }
			FILTER(?k != "")
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want only the 2 bound ones", len(res.Rows))
	}
}

func TestOptionalDecodesNull(t *testing.T) {
	e := newEngine(t, 2)
	res, err := e.Query(`
		SELECT ?n ?k WHERE {
			?s <http://x/name> ?n .
			OPTIONAL { ?s <http://x/knows> ?k . }
		} ORDER BY ?n LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	row := res.Rows[0]
	if row[1].Kind == expr.KindNull && e.Strings(res)[0][1] != "null" {
		t.Fatalf("null decodes to %q", e.Strings(res)[0][1])
	}
}

func TestOptionalParseErrors(t *testing.T) {
	e := newEngine(t, 2)
	bad := []string{
		`SELECT ?s WHERE { ?s ?p ?o . OPTIONAL }`,
		`SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { } }`,
		`SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { ?s ?q ?r . }`,
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("Query(%q) succeeded", q)
		}
	}
}
