package sparql

import (
	"strings"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
)

func mustParse(t *testing.T, q string) *Query {
	t.Helper()
	out, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return out
}

func TestParseMinimal(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://x/p> ?o . }`)
	if len(q.Select) != 1 || q.Select[0] != "s" {
		t.Fatalf("Select = %v", q.Select)
	}
	pats := elems[TriplePattern](q)
	if len(pats) != 1 {
		t.Fatalf("patterns = %d", len(pats))
	}
	tp := pats[0]
	if !tp.S.IsVar || tp.S.Var != "s" {
		t.Fatalf("S = %+v", tp.S)
	}
	if tp.P.IsVar || tp.P.Term.Value != "http://x/p" {
		t.Fatalf("P = %+v", tp.P)
	}
	if !tp.O.IsVar || tp.O.Var != "o" {
		t.Fatalf("O = %+v", tp.O)
	}
}

func TestParsePrefixes(t *testing.T) {
	q := mustParse(t, `
		PREFIX up: <http://purl.uniprot.org/core/>
		SELECT ?p WHERE { ?p a up:Protein . }`)
	tp := elems[TriplePattern](q)[0]
	if tp.P.Term.Value != rdfType {
		t.Fatalf("'a' did not expand: %v", tp.P)
	}
	if tp.O.Term.Value != "http://purl.uniprot.org/core/Protein" {
		t.Fatalf("prefix not expanded: %v", tp.O)
	}
}

func TestParseUndeclaredPrefix(t *testing.T) {
	if _, err := Parse(`SELECT ?p WHERE { ?p a up:Protein . }`); err == nil {
		t.Fatal("undeclared prefix accepted")
	}
}

func TestParseSelectStarAndDistinct(t *testing.T) {
	q := mustParse(t, `SELECT DISTINCT * WHERE { ?s ?p ?o . }`)
	if !q.Distinct || len(q.Select) != 0 {
		t.Fatalf("Distinct=%v Select=%v", q.Distinct, q.Select)
	}
}

func TestParseMultiplePatternsAndSemicolon(t *testing.T) {
	q := mustParse(t, `
		SELECT ?s ?n WHERE {
			?s <http://x/name> ?n ;
			   <http://x/age> ?a .
			?s <http://x/knows> ?k .
		}`)
	pats := elems[TriplePattern](q)
	if len(pats) != 3 {
		t.Fatalf("patterns = %d, want 3", len(pats))
	}
	// Semicolon reuses the subject.
	if pats[1].S.Var != "s" {
		t.Fatalf("semicolon subject = %v", pats[1].S)
	}
}

func TestParseLiteralObjects(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://x/name> "Ada" . ?s <http://x/age> 36 . }`)
	pats := elems[TriplePattern](q)
	if pats[0].O.Term.Kind != dict.Literal || pats[0].O.Term.Value != "Ada" {
		t.Fatalf("string literal = %v", pats[0].O)
	}
	if pats[1].O.Term.Value != "36" {
		t.Fatalf("numeric literal = %v", pats[1].O)
	}
}

func TestParseFilterComparison(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://x/age> ?a . FILTER(?a >= 18 && ?a < 65) }`)
	fs := elems[Filter](q)
	if len(fs) != 1 {
		t.Fatalf("filters = %d", len(fs))
	}
	and, ok := fs[0].Expr.(*expr.And)
	if !ok || len(and.Children) != 2 {
		t.Fatalf("filter expr = %s", fs[0].Expr)
	}
}

func TestParseFilterUDFCall(t *testing.T) {
	q := mustParse(t, `
		SELECT ?c WHERE {
			?c <http://x/smiles> ?smi .
			FILTER(ncnpr.sw_similarity(?seq, "MKTAYIA") >= 0.9 && ncnpr.dtba(?seq, ?smi) > 7.0)
		}`)
	f := elems[Filter](q)[0]
	names := expr.CallNames(f.Expr)
	if len(names) != 2 || names[0] != "ncnpr.sw_similarity" || names[1] != "ncnpr.dtba" {
		t.Fatalf("call names = %v", names)
	}
}

func TestParseFilterArithmeticPrecedence(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE { ?s <http://x/v> ?x . FILTER(?x + 2 * 3 = 7) }`)
	cmp := elems[Filter](q)[0].Expr.(*expr.Cmp)
	// Left side must be ?x + (2*3).
	add, ok := cmp.L.(*expr.Arith)
	if !ok || add.Op != expr.Add {
		t.Fatalf("L = %s", cmp.L)
	}
	if _, ok := add.R.(*expr.Arith); !ok {
		t.Fatalf("precedence wrong: %s", cmp.L)
	}
}

func TestParseFilterNotAndOr(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE { ?s <http://x/v> ?x . FILTER(!(?x = 1) || ?x > 10) }`)
	or, ok := elems[Filter](q)[0].Expr.(*expr.Or)
	if !ok || len(or.Children) != 2 {
		t.Fatalf("expr = %s", elems[Filter](q)[0].Expr)
	}
	if _, ok := or.Children[0].(*expr.Not); !ok {
		t.Fatalf("first disjunct = %s", or.Children[0])
	}
}

func TestParseFilterBooleansAndStrings(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE { ?s <http://x/v> ?x . FILTER(?x = "yes" || ?x = true) }`)
	or := elems[Filter](q)[0].Expr.(*expr.Or)
	c0 := or.Children[0].(*expr.Cmp).R.(*expr.Const)
	if c0.Val.Kind != expr.KindString || c0.Val.Str != "yes" {
		t.Fatalf("string const = %s", c0.Val)
	}
	c1 := or.Children[1].(*expr.Cmp).R.(*expr.Const)
	if c1.Val.Kind != expr.KindBool || !c1.Val.Bool {
		t.Fatalf("bool const = %s", c1.Val)
	}
}

func TestParseModifiers(t *testing.T) {
	q := mustParse(t, `
		SELECT ?s ?score WHERE { ?s <http://x/score> ?score . }
		ORDER BY DESC(?score) ?s LIMIT 10 OFFSET 5`)
	if len(q.OrderBy) != 2 {
		t.Fatalf("order keys = %d", len(q.OrderBy))
	}
	if !q.OrderBy[0].Desc || q.OrderBy[0].Var != "score" {
		t.Fatalf("key0 = %+v", q.OrderBy[0])
	}
	if q.OrderBy[1].Desc || q.OrderBy[1].Var != "s" {
		t.Fatalf("key1 = %+v", q.OrderBy[1])
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Fatalf("limit=%d offset=%d", q.Limit, q.Offset)
	}
}

func TestParseComments(t *testing.T) {
	q := mustParse(t, `
		# find everything
		SELECT ?s WHERE {
			?s ?p ?o . # any triple
		}`)
	if len(elems[TriplePattern](q)) != 1 {
		t.Fatal("comment handling broke parsing")
	}
}

func TestParseEscapedString(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://x/note> "a\"b\nc" . }`)
	if got := elems[TriplePattern](q)[0].O.Term.Value; got != "a\"b\nc" {
		t.Fatalf("escaped string = %q", got)
	}
}

func TestParseNegativeAndFloatNumbers(t *testing.T) {
	q := mustParse(t, `SELECT ?x WHERE { ?s <http://x/v> ?x . FILTER(?x > -7.25 && ?x < 1e3) }`)
	and := elems[Filter](q)[0].Expr.(*expr.And)
	r0 := and.Children[0].(*expr.Cmp).R.(*expr.Const)
	if r0.Val.Num != -7.25 {
		t.Fatalf("negative float = %s", r0.Val)
	}
	r1 := and.Children[1].(*expr.Cmp).R.(*expr.Const)
	if r1.Val.Num != 1000 {
		t.Fatalf("scientific = %s", r1.Val)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT ?s`,
		`SELECT ?s WHERE`,
		`SELECT ?s WHERE {`,
		`SELECT ?s WHERE { ?s ?p }`,
		`SELECT ?s WHERE { ?s ?p ?o . } LIMIT x`,
		`SELECT ?s WHERE { ?s ?p ?o . } garbage`,
		`SELECT ?s WHERE { FILTER ?x }`,
		`SELECT ?s WHERE { FILTER(?x > ) }`,
		`SELECT ?s WHERE { FILTER(foo) }`,
		`SELECT ?s WHERE { ?s ?p "unterminated }`,
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestParseNCNPRStyleQuery(t *testing.T) {
	// The full shape of the paper's inner query.
	q := mustParse(t, `
		PREFIX up: <http://purl.uniprot.org/core/>
		PREFIX ch: <http://chem.example.org/>
		SELECT DISTINCT ?compound ?smiles WHERE {
			?protein a up:Protein .
			?protein up:reviewed "true" .
			?protein up:sequence ?seq .
			?compound ch:inhibits ?protein .
			?compound ch:smiles ?smiles .
			?compound ch:ic50 ?ic50 .
			FILTER(ncnpr.sw(?seq) >= 0.9 && ncnpr.pic50(?ic50) > 6 && ncnpr.dtba(?seq, ?smiles) > 7)
		}
		ORDER BY ?compound LIMIT 2000`)
	if len(elems[TriplePattern](q)) != 6 {
		t.Fatalf("patterns = %d", len(elems[TriplePattern](q)))
	}
	if len(elems[Filter](q)) != 1 {
		t.Fatalf("filters = %d", len(elems[Filter](q)))
	}
	conj := expr.Conjuncts(elems[Filter](q)[0].Expr)
	if len(conj) != 3 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
}

func TestParseUnion(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE {
		?s <http://x/type> "thing" .
		{ ?s <http://x/a> ?v . FILTER(?v > 1) }
		UNION
		{ ?s <http://x/b> ?v . }
		UNION
		{ ?s <http://x/c> ?v . }
	}`)
	var u *UnionPattern
	for _, el := range q.Where {
		if up, ok := el.(UnionPattern); ok {
			u = &up
		}
	}
	if u == nil {
		t.Fatalf("no union parsed: %#v", q.Where)
	}
	if len(u.Branches) != 3 {
		t.Fatalf("branches = %d", len(u.Branches))
	}
	// First branch carries its filter.
	hasFilter := false
	for _, el := range u.Branches[0] {
		if _, ok := el.(Filter); ok {
			hasFilter = true
		}
	}
	if !hasFilter {
		t.Fatal("branch filter lost")
	}
	// Outer pattern still present.
	if len(elems[TriplePattern](q)) != 1 {
		t.Fatalf("outer patterns = %d", len(elems[TriplePattern](q)))
	}
}

func TestParseNestedUnion(t *testing.T) {
	q := mustParse(t, `SELECT ?s WHERE {
		{ ?s <http://x/a> ?v . }
		UNION
		{ { ?s <http://x/b> ?v . } UNION { ?s <http://x/c> ?v . } }
	}`)
	u := q.Where[0].(UnionPattern)
	if len(u.Branches) != 2 {
		t.Fatalf("branches = %d", len(u.Branches))
	}
	if _, ok := u.Branches[1][0].(UnionPattern); !ok {
		t.Fatalf("nested union lost: %#v", u.Branches[1])
	}
}

func TestParseUpdateInsert(t *testing.T) {
	u, err := ParseUpdate(`
		PREFIX x: <http://x/>
		INSERT DATA {
			x:a x:p "v1" .
			<http://x/b> <http://x/q> x:a .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if u.Kind != InsertData || len(u.Triples) != 2 {
		t.Fatalf("update = %+v", u)
	}
	if u.Triples[0].S.Value != "http://x/a" || u.Triples[0].O.Value != "v1" {
		t.Fatalf("triple0 = %+v", u.Triples[0])
	}
	if u.Triples[1].O.Kind != dict.IRI {
		t.Fatalf("triple1 object kind = %v", u.Triples[1].O.Kind)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	u, err := ParseUpdate(`DELETE DATA { <http://x/a> <http://x/p> "v" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if u.Kind != DeleteData || u.Kind.String() != "DELETE DATA" {
		t.Fatalf("kind = %v", u.Kind)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	bad := []string{
		``,
		`INSERT DATA`,
		`INSERT DATA { }`,
		`INSERT DATA { ?v <http://x/p> "o" . }`,
		`INSERT DATA { <http://x/s> ?p "o" . }`,
		`MODIFY DATA { <http://x/s> <http://x/p> "o" . }`,
		`INSERT DATA { <http://x/s> <http://x/p> "o" . } extra`,
		`INSERT DATA { <http://x/s> <http://x/p> "o" .`,
	}
	for _, s := range bad {
		if _, err := ParseUpdate(s); err == nil {
			t.Errorf("ParseUpdate(%q) succeeded", s)
		}
	}
}

func TestTermOrVarString(t *testing.T) {
	if V("x").String() != "?x" {
		t.Fatal("var string")
	}
	tv := T(dict.Term{Kind: dict.IRI, Value: "http://x"})
	if tv.String() != "<http://x>" {
		t.Fatal("term string")
	}
	tp := TriplePattern{S: V("s"), P: tv, O: V("o")}
	if !strings.Contains(tp.String(), "?s <http://x> ?o") {
		t.Fatalf("pattern string = %s", tp)
	}
}

func TestPatternVars(t *testing.T) {
	tp := TriplePattern{S: V("s"), P: T(dict.Term{Kind: dict.IRI, Value: "p"}), O: V("o")}
	vars := tp.Vars()
	if len(vars) != 2 || vars[0] != "s" || vars[1] != "o" {
		t.Fatalf("Vars = %v", vars)
	}
}

func BenchmarkParse(b *testing.B) {
	q := `
		PREFIX up: <http://purl.uniprot.org/core/>
		SELECT ?c WHERE {
			?p a up:Protein . ?c <http://x/inhibits> ?p .
			FILTER(f.sw(?s) >= 0.9 && f.dtba(?s, ?c) > 7)
		} LIMIT 100`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

func TestParseSimilar(t *testing.T) {
	q, err := Parse(`
		PREFIX c: <http://x/c/>
		SELECT ?x ?n WHERE {
			SIMILAR(?x, c:42, 10, "fp") .
			?x <http://x/name> ?n .
			SIMILAR(?y, "aspirin", 5)
			SIMILAR(?z, [0.5 -1 2.5e-1], 3) .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	sims := elems[SimilarPattern](q)
	if len(sims) != 3 {
		t.Fatalf("Similars = %v", sims)
	}
	a := sims[0]
	if a.Var != "x" || a.Key != "http://x/c/42" || !a.KeyIsIRI || a.K != 10 || a.Store != "fp" {
		t.Fatalf("first SIMILAR = %+v", a)
	}
	b := sims[1]
	if b.Var != "y" || b.Key != "aspirin" || b.KeyIsIRI || b.K != 5 || b.Store != "" {
		t.Fatalf("second SIMILAR = %+v", b)
	}
	c := sims[2]
	if c.Var != "z" || len(c.Vec) != 3 || c.Vec[1] != -1 || c.Vec[2] != 0.25 || c.K != 3 {
		t.Fatalf("third SIMILAR = %+v", c)
	}
	if len(elems[TriplePattern](q)) != 1 {
		t.Fatalf("Patterns = %v", elems[TriplePattern](q))
	}
	if s := a.String(); !strings.Contains(s, "<http://x/c/42>") || !strings.Contains(s, `"fp"`) {
		t.Fatalf("String = %s", s)
	}
	if s := c.String(); !strings.Contains(s, "3-dim vector") {
		t.Fatalf("String = %s", s)
	}
}

func TestParseSimilarErrors(t *testing.T) {
	bad := []string{
		`SELECT ?x WHERE { SIMILAR(?x, [], 3) }`,
		`SELECT ?x WHERE { SIMILAR(?x, [1 2], 0) }`,
		`SELECT ?x WHERE { SIMILAR(?x, [1 2], -4) }`,
		`SELECT ?x WHERE { SIMILAR(?x, [1 2], 2.5) }`,
		`SELECT ?x WHERE { SIMILAR("notavar", [1 2], 3) }`,
		`SELECT ?x WHERE { SIMILAR(?x, ?y, 3) }`,
		`SELECT ?x WHERE { SIMILAR(?x, u:1, 3) }`,
		`SELECT ?x WHERE { SIMILAR(?x, "k", 3, ?v) }`,
		`SELECT ?x WHERE { SIMILAR(?x, "k", 3 `,
		`SELECT ?x WHERE { SIMILAR(?x, [1 2 }`,
		`SELECT ?x WHERE { SIMILAR ?x }`,
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

// elems returns the top-level WHERE elements of type T, in order.
func elems[T Element](q *Query) []T {
	var out []T
	for _, e := range q.Where {
		if x, ok := e.(T); ok {
			out = append(out, x)
		}
	}
	return out
}
