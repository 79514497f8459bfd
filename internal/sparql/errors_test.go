package sparql

import (
	"errors"
	"testing"

	"ids/internal/dict"
)

func TestParseBind(t *testing.T) {
	q := mustParse(t, `SELECT ?x ?y WHERE { ?x <http://x/p> ?o . BIND(?o + 1 AS ?y) }`)
	binds := elems[Bind](q)
	if len(binds) != 1 {
		t.Fatalf("binds = %d, want 1", len(binds))
	}
	if binds[0].Var != "y" {
		t.Fatalf("bind var = %q, want y", binds[0].Var)
	}
	if len(q.Where) != 2 {
		t.Fatalf("where elements = %d, want 2", len(q.Where))
	}
	if _, ok := q.Where[1].(Bind); !ok {
		t.Fatalf("where[1] = %T, want Bind", q.Where[1])
	}
}

func TestParseValuesSingleVar(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE { VALUES ?x { <http://x/a> "b" 3 UNDEF } }`)
	vs := elems[ValuesPattern](q)
	if len(vs) != 1 {
		t.Fatalf("values blocks = %d, want 1", len(vs))
	}
	vp := vs[0]
	if len(vp.Vars) != 1 || vp.Vars[0] != "x" {
		t.Fatalf("vars = %v", vp.Vars)
	}
	if len(vp.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(vp.Rows))
	}
	if vp.Rows[0][0].Term.Kind != dict.IRI || vp.Rows[0][0].Term.Value != "http://x/a" {
		t.Fatalf("row 0 = %+v", vp.Rows[0][0])
	}
	if vp.Rows[1][0].Term.Kind != dict.Literal || vp.Rows[1][0].Term.Value != "b" {
		t.Fatalf("row 1 = %+v", vp.Rows[1][0])
	}
	if !vp.Rows[3][0].Undef {
		t.Fatalf("row 3 not UNDEF: %+v", vp.Rows[3][0])
	}
}

func TestParseValuesMultiVarAndTrailing(t *testing.T) {
	q := mustParse(t, `
		PREFIX x: <http://x/>
		SELECT ?a ?b WHERE { ?a x:p ?b . VALUES (?a ?b) { (x:1 "u") (UNDEF "v") } }`)
	vs := elems[ValuesPattern](q)
	if len(vs) != 1 {
		t.Fatalf("values blocks = %d, want 1", len(vs))
	}
	vp := vs[0]
	if len(vp.Vars) != 2 || vp.Vars[0] != "a" || vp.Vars[1] != "b" {
		t.Fatalf("vars = %v", vp.Vars)
	}
	if len(vp.Rows) != 2 {
		t.Fatalf("rows = %d", len(vp.Rows))
	}
	if vp.Rows[0][0].Term.Value != "http://x/1" {
		t.Fatalf("prefix not expanded: %+v", vp.Rows[0][0])
	}
	if !vp.Rows[1][0].Undef || vp.Rows[1][1].Term.Value != "v" {
		t.Fatalf("row 1 = %+v", vp.Rows[1])
	}

	// Trailing form after the solution modifiers.
	q2 := mustParse(t, `SELECT ?s WHERE { ?s <http://x/p> ?o . } LIMIT 5 VALUES ?s { <http://x/a> }`)
	if got := elems[ValuesPattern](q2); len(got) != 1 || len(got[0].Rows) != 1 {
		t.Fatalf("trailing VALUES blocks = %+v", got)
	}
	if q2.Limit != 5 {
		t.Fatalf("limit = %d", q2.Limit)
	}
}

func TestUnsupportedFeatureTags(t *testing.T) {
	cases := []struct {
		in      string
		feature string
	}{
		{`ASK { ?s ?p ?o }`, "ask"},
		{`CONSTRUCT { ?s ?p ?o } WHERE { ?s ?p ?o }`, "construct"},
		{`DESCRIBE <http://x/a>`, "describe"},
		{`SELECT ?s WHERE { ?s ?p ?o . MINUS { ?s <http://x/q> ?o } }`, "minus"},
		{`SELECT ?s WHERE { GRAPH <http://x/g> { ?s ?p ?o } }`, "graph"},
		{`SELECT ?s WHERE { SERVICE <http://x/sv> { ?s ?p ?o } }`, "service"},
		{`SELECT ?s WHERE { { SELECT ?s WHERE { ?s ?p ?o } } }`, "subquery"},
		{`SELECT ?s WHERE { { ?s ?p ?o } UNION { SELECT ?s WHERE { ?s ?p ?o } } }`, "subquery"},
		{`SELECT ?s WHERE { ?s <http://x/p>/<http://x/q> ?o . }`, "property-path"},
		{`SELECT ?s WHERE { ?s <http://x/p>* ?o . }`, "property-path"},
		{`SELECT ?s WHERE { ?s <http://x/p>+ ?o . }`, "property-path"},
		{`SELECT ?s WHERE { ?s ?p ?o . FILTER NOT EXISTS { ?s <http://x/q> ?o } }`, "not-exists"},
		{`SELECT ?s WHERE { ?s ?p ?o . FILTER EXISTS { ?s <http://x/q> ?o } }`, "not-exists"},
		{`SELECT ?s WHERE { ?s ?p ?o . FILTER(EXISTS { ?s <http://x/q> ?o }) }`, "not-exists"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want unsupported-feature error", tc.in)
			continue
		}
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q) error %v is not *Error", tc.in, err)
			continue
		}
		if se.Code != ErrUnsupported {
			t.Errorf("Parse(%q) code = %q, want %q (err %v)", tc.in, se.Code, ErrUnsupported, err)
		}
		if se.Feature != tc.feature {
			t.Errorf("Parse(%q) feature = %q, want %q", tc.in, se.Feature, tc.feature)
		}
	}
}

// TestAllErrorPathsStructured sweeps malformed inputs through every
// parser stage and asserts each error is a *Error carrying a code,
// an in-range offset, and non-empty near-offset context.
func TestAllErrorPathsStructured(t *testing.T) {
	bad := []string{
		// Lexer paths.
		`SELECT ?s WHERE { ?s ?p "unterminated }`,
		`SELECT ?s WHERE { ?s ?p ?o . FILTER(?x & 1) }`,
		`SELECT ?s WHERE { ?s ?p ?o . FILTER(?x | 1) }`,
		`SELECT ? WHERE { ?s ?p ?o . }`,
		`SELECT ?s WHERE { ?s ?p ^ }`,
		// Parser paths: projection, WHERE, groups.
		`SELECT`,
		`SELECT ?s`,
		`SELECT ?s WHERE`,
		`SELECT ?s WHERE {`,
		`SELECT ?s WHERE { ?s ?p }`,
		`SELECT ?s WHERE { ?s ?p ?o`,
		`SELECT ?s WHERE { OPTIONAL { } }`,
		`SELECT ?s WHERE { { ?s ?p ?o } }`,
		`SELECT ?s WHERE { { } UNION { ?s ?p ?o } }`,
		`PREFIX x <http://x/> SELECT ?s WHERE { ?s ?p ?o . }`,
		`SELECT ?s WHERE { ?s x:p ?o . }`,
		// Modifiers.
		`SELECT ?s WHERE { ?s ?p ?o . } LIMIT x`,
		`SELECT ?s WHERE { ?s ?p ?o . } OFFSET x`,
		`SELECT ?s WHERE { ?s ?p ?o . } ORDER BY`,
		`SELECT ?s WHERE { ?s ?p ?o . } GROUP BY`,
		`SELECT ?s WHERE { ?s ?p ?o . } garbage`,
		// Aggregates.
		`SELECT (median(?x) AS ?m) WHERE { ?s ?p ?x . }`,
		`SELECT (sum(*) AS ?m) WHERE { ?s ?p ?x . }`,
		`SELECT (count(?x) ?m) WHERE { ?s ?p ?x . }`,
		// Expressions.
		`SELECT ?s WHERE { FILTER ?x }`,
		`SELECT ?s WHERE { FILTER(?x > ) }`,
		`SELECT ?s WHERE { FILTER(foo) }`,
		// BIND.
		`SELECT ?s WHERE { BIND }`,
		`SELECT ?s WHERE { BIND(1 ?x) }`,
		`SELECT ?s WHERE { BIND(1 AS x) }`,
		`SELECT ?s WHERE { BIND(1 AS ?x }`,
		// VALUES.
		`SELECT ?s WHERE { VALUES }`,
		`SELECT ?s WHERE { VALUES ?x { ?y } }`,
		`SELECT ?s WHERE { VALUES ?x { <http://x/a>`,
		`SELECT ?s WHERE { VALUES () { } }`,
		`SELECT ?s WHERE { VALUES (?a ?b) { (<http://x/a>) } }`,
		`SELECT ?s WHERE { VALUES (?a) { <http://x/a> } }`,
		// SIMILAR.
		`SELECT ?x WHERE { SIMILAR(?x, [], 3) }`,
		`SELECT ?x WHERE { SIMILAR(?x, ?y, 3) }`,
		`SELECT ?x WHERE { SIMILAR ?x }`,
	}
	for _, in := range bad {
		_, err := Parse(in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
			continue
		}
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q) error %v (%T) is not *Error", in, err, err)
			continue
		}
		if se.Code == "" {
			t.Errorf("Parse(%q) error has empty code", in)
		}
		if se.Offset < 0 || se.Offset > len(in) {
			t.Errorf("Parse(%q) offset %d out of range", in, se.Offset)
		}
	}

	// ParseUpdate error paths carry structured errors too.
	badUpdates := []string{
		`INSERT`,
		`INSERT DATA`,
		`INSERT DATA { }`,
		`INSERT DATA { ?s <http://x/p> <http://x/o> . }`,
		`DELETE DATA { FILTER(1 > 0) }`,
		`UPSERT DATA { <http://x/s> <http://x/p> <http://x/o> . }`,
	}
	for _, in := range badUpdates {
		_, err := ParseUpdate(in)
		if err == nil {
			t.Errorf("ParseUpdate(%q) succeeded, want error", in)
			continue
		}
		var se *Error
		if !errors.As(err, &se) {
			t.Errorf("ParseUpdate(%q) error %v (%T) is not *Error", in, err, err)
		}
	}
}

// TestSpacedMinusOperator pins the lexer fix the conformance sweep
// forced: a bare "-" between operands is subtraction, while "-3" and
// "-.5" stay negative literals. Before the fix every spaced
// subtraction died as "malformed number".
func TestSpacedMinusOperator(t *testing.T) {
	good := []string{
		`SELECT ?s WHERE { ?s <http://x/p> ?v . FILTER(?v - 1 > 0) }`,
		`SELECT ?s ?d WHERE { ?s <http://x/p> ?v . BIND(?v - 50 AS ?d) }`,
		`SELECT ?s WHERE { ?s <http://x/p> ?v . FILTER(?v > -3) }`,
		`SELECT ?s WHERE { ?s <http://x/p> ?v . FILTER(?v > -.5) }`,
		`SELECT ?x WHERE { SIMILAR(?x, [0.1 -2 3.5e-1], 3, "fp") }`,
	}
	for _, in := range good {
		if _, err := Parse(in); err != nil {
			t.Errorf("Parse(%q): %v", in, err)
		}
	}
	if _, err := Parse(`SELECT ?s WHERE { ?s <http://x/p> ?v . FILTER(?v - ) }`); err == nil {
		t.Error("dangling minus operand must stay an error")
	}
}
