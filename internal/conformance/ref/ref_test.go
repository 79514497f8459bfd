package ref

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/sparql"
	"ids/internal/udf"
	"ids/internal/vecstore"
	"ids/internal/vecstore/hnsw"
)

// The reference is checked against something that is not the engine:
// twelve triples, and for every construct the rows a person reading
// the twelve triples writes down.
//
//	a type T   b type T   c type T
//	a score 5  b score 13 c score "x"
//	a knows b  b knows c
//	a tag t1   b tag t1   b tag t2
//	a nick al
func refWorld(t *testing.T) *World {
	t.Helper()
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: "http://r/" + s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	w := &World{UDFs: udf.NewRegistry()}
	for _, tr := range [][3]dict.Term{
		{iri("a"), iri("type"), iri("T")}, {iri("b"), iri("type"), iri("T")}, {iri("c"), iri("type"), iri("T")},
		{iri("a"), iri("score"), lit("5")}, {iri("b"), iri("score"), lit("13")}, {iri("c"), iri("score"), lit("x")},
		{iri("a"), iri("knows"), iri("b")}, {iri("b"), iri("knows"), iri("c")},
		{iri("a"), iri("tag"), lit("t1")}, {iri("b"), iri("tag"), lit("t1")}, {iri("b"), iri("tag"), lit("t2")},
		{iri("a"), iri("nick"), lit("al")},
	} {
		w.Triples = append(w.Triples, Triple{tr[0], tr[1], tr[2]})
	}
	if err := w.UDFs.Register("twice", func(args []expr.Value) (expr.Value, error) {
		if args[0].Kind != expr.KindFloat {
			return expr.Null, fmt.Errorf("twice(number)")
		}
		return expr.Float(2 * args[0].Num), nil
	}); err != nil {
		t.Fatal(err)
	}
	// Keys on a line: a at 0, "nobody" (no graph term) at 1, b at 2, c at 3.
	vs, err := vecstore.New(1, vecstore.L2)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"http://r/a", "nobody", "http://r/b", "http://r/c"} {
		if err := vs.Add(key, []float32{float32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := vs.EnableHNSW(hnsw.Config{M: 4, EfConstruction: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	w.Vectors = map[string]*vecstore.Store{"line": vs}
	return w
}

const (
	a, b, c = "<http://r/a>", "<http://r/b>", "<http://r/c>"
	prefix  = "PREFIX r: <http://r/> "
)

func TestRefHandComputedAnswers(t *testing.T) {
	w := refWorld(t)
	for _, tc := range []struct {
		name, query string
		ordered     bool // rows are in answer order; otherwise compared as a bag
		want        [][]string
	}{
		{"join", `SELECT ?x ?y WHERE { ?x r:knows ?y . ?y r:type r:T . }`, false,
			[][]string{{a, b}, {b, c}}},
		{"repeated variable", `SELECT ?x WHERE { ?x r:knows ?x . }`, false, nil},
		{"optional null-extends", `SELECT ?s ?n WHERE { ?s r:type r:T . OPTIONAL { ?s r:nick ?n . } }`, false,
			[][]string{{a, `"al"`}, {b, "null"}, {c, "null"}}},
		{"leading optional is its body", `SELECT ?s WHERE { OPTIONAL { ?s r:nick "nobody" . } }`, false, nil},
		{"union is a bag", `SELECT ?s WHERE { { ?s r:tag "t1" . } UNION { ?s r:tag "t2" . } }`, false,
			[][]string{{a}, {b}, {b}}},
		{"distinct is over the projection", `SELECT DISTINCT ?t WHERE { ?s r:tag ?t . } ORDER BY ?t`, true,
			[][]string{{`"t1"`}, {`"t2"`}}},
		{"distinct before the slice", `SELECT DISTINCT ?t WHERE { ?s r:tag ?t . } ORDER BY ?t LIMIT 1 OFFSET 1`, true,
			[][]string{{`"t2"`}}},
		{"filter error drops the row", `SELECT ?s WHERE { ?s r:score ?v . FILTER(?v + 1 > 6) }`, false,
			[][]string{{b}}}, // a: 6 > 6 is false; c: "x" + 1 is an error
		{"filter on an unbound variable drops the row", `SELECT ?s WHERE { ?s r:type r:T . OPTIONAL { ?s r:nick ?n . } FILTER(!(?n = "zz")) }`, false,
			[][]string{{a}}},
		{"number against text answers only = and !=", `SELECT ?s WHERE { ?s r:score ?v . FILTER(?v != "x") }`, false,
			[][]string{{a}, {b}}},
		{"two graph terms compare by value", `SELECT ?x ?y WHERE { ?x r:score ?p . ?y r:score ?q . FILTER(?p < ?q) }`, false,
			[][]string{{a, b}}}, // 5 < 13; anything against "x" is an error
		{"|| stops at the first true", `SELECT ?s WHERE { ?s r:score ?v . FILTER(?v = "x" || ?v * 2 > 20) }`, false,
			[][]string{{b}, {c}}},
		{"udf sees concrete values", `SELECT ?s WHERE { ?s r:score ?v . FILTER(twice(?v) > 20) }`, false,
			[][]string{{b}}},
		{"bind error leaves unbound", `SELECT ?s ?w WHERE { ?s r:score ?v . BIND(?v * 2 AS ?w) } ORDER BY ?s`, true,
			[][]string{{a, "10"}, {b, "26"}, {c, "null"}}},
		{"bind division by zero", `SELECT ?w WHERE { r:a r:score ?v . BIND(?v / 0 AS ?w) }`, false,
			[][]string{{"null"}}},
		{"values", `SELECT ?s ?t WHERE { VALUES (?s ?t) { (r:a "t1") (UNDEF "t2") } }`, false,
			[][]string{{a, `"t1"`}, {"null", `"t2"`}}},
		{"undef agrees only with unbound; an unknown term drops its row",
			`SELECT ?s ?t WHERE { VALUES (?s ?t) { (r:a "t1") (UNDEF "t2") (r:nosuch "t1") (r:b "t9") } ?s r:tag ?t . }`, false,
			[][]string{{a, `"t1"`}}},
		{"every aggregate", `SELECT (COUNT(?v) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s r:score ?v . }`, false,
			[][]string{{"3", "18", "9", "5", "13"}}}, // "x" is counted, not summed
		{"count skips unbound, count(*) does not",
			`SELECT ?s (COUNT(?n) AS ?c) (COUNT(*) AS ?all) WHERE { ?s r:type r:T . OPTIONAL { ?s r:nick ?n . } } GROUP BY ?s ORDER BY ?s`, true,
			[][]string{{a, "1", "1"}, {b, "0", "1"}, {c, "0", "1"}}},
		{"aggregates of nothing", `SELECT (COUNT(*) AS ?all) (COUNT(?s) AS ?n) (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s r:nosuch ?v . }`, false,
			[][]string{{"0", "0", "0", "null", "null", "null"}}},
		{"grouped aggregate of nothing", `SELECT ?s (COUNT(?v) AS ?n) WHERE { ?s r:nosuch ?v . } GROUP BY ?s`, false, nil},
		{"a group without numbers", `SELECT ?t (AVG(?t) AS ?m) (SUM(?t) AS ?sum) WHERE { r:a r:tag ?t . } GROUP BY ?t`, false,
			[][]string{{`"t1"`, "null", "0"}}},
		{"order: numbers by value, then text", `SELECT ?v WHERE { ?s r:score ?v . } ORDER BY ?v`, true,
			[][]string{{`"5"`}, {`"13"`}, {`"x"`}}},
		{"order desc is the reverse", `SELECT ?v WHERE { ?s r:score ?v . } ORDER BY DESC(?v)`, true,
			[][]string{{`"x"`}, {`"13"`}, {`"5"`}}},
		{"order: unbound first", `SELECT ?s ?w WHERE { ?s r:score ?v . BIND(?v * 2 AS ?w) } ORDER BY ?w`, true,
			[][]string{{c, "null"}, {a, "10"}, {b, "26"}}},
		{"order by an IRI", `SELECT ?y WHERE { ?x r:knows ?y . } ORDER BY DESC(?y)`, true,
			[][]string{{c}, {b}}},
		{"limit 0", `SELECT ?v WHERE { ?s r:score ?v . } ORDER BY ?v LIMIT 0`, true, nil},
		{"offset past the end", `SELECT ?v WHERE { ?s r:score ?v . } ORDER BY ?v LIMIT 2 OFFSET 5`, true, nil},
		{"window", `SELECT ?v WHERE { ?s r:score ?v . } ORDER BY ?v LIMIT 1 OFFSET 1`, true,
			[][]string{{`"13"`}}},
		{"limit past the end", `SELECT ?v WHERE { ?s r:score ?v . } ORDER BY ?v LIMIT 10 OFFSET 2`, true,
			[][]string{{`"x"`}}},
		{"similar drops keys the graph does not have", `SELECT ?s WHERE { SIMILAR(?s, [0], 3, "line") . }`, false,
			[][]string{{a}, {b}}}, // the three nearest to 0 are a, nobody, b
		{"similar as a semi-join", `SELECT ?s ?n WHERE { ?s r:nick ?n . SIMILAR(?s, r:c, 2) }`, false, nil}, // nearest to c: c, b
		{"similar joined", `SELECT ?s ?t WHERE { SIMILAR(?s, r:c, 2, "line") . ?s r:tag ?t . }`, false,
			[][]string{{b, `"t1"`}, {b, `"t2"`}}},
	} {
		q, err := sparql.Parse(prefix + tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := w.Eval(q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, want := slices.Clone(res.Rows), slices.Clone(tc.want)
		if !tc.ordered {
			byRow := func(x, y []string) int { return strings.Compare(strings.Join(x, "\x1f"), strings.Join(y, "\x1f")) }
			slices.SortFunc(got, byRow)
			slices.SortFunc(want, byRow)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: %s\n got  %v\n want %v", tc.name, tc.query, got, want)
		}
	}
}

// TestRefTiesAndDiff: what the reference reports as open (ties under
// ORDER BY, a window that cuts a tie, SELECT * column order) is what
// Diff lets an engine choose, and nothing else.
func TestRefTiesAndDiff(t *testing.T) {
	w := refWorld(t)
	eval := func(query string) *Result {
		t.Helper()
		q, err := sparql.Parse(prefix + query)
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// a/t1 and b/t1 tie on ?t; b/t2 follows.
	tied := eval(`SELECT ?s WHERE { ?s r:tag ?t . } ORDER BY ?t`)
	if !slices.Equal(tied.Group, []int{0, 0, 1}) || tied.Loose {
		t.Fatalf("tie runs = %v loose=%v, want [0 0 1] false", tied.Group, tied.Loose)
	}
	for _, tc := range []struct {
		rows [][]string
		ok   bool
	}{
		{[][]string{{a}, {b}, {b}}, true},
		{[][]string{{b}, {a}, {b}}, true},  // the tie, the other way round
		{[][]string{{b}, {b}, {a}}, false}, // a row of the first run in the second
		{[][]string{{a}, {b}}, false},
		{[][]string{{a}, {b}, {c}}, false},
	} {
		if diff := tied.Diff([]string{"s"}, tc.rows); (diff == "") != tc.ok {
			t.Errorf("Diff(%v) = %q, want ok=%v", tc.rows, diff, tc.ok)
		}
	}
	if diff := tied.Diff([]string{"x"}, [][]string{{a}, {b}, {b}}); diff == "" {
		t.Error("a renamed column passed")
	}
	// LIMIT 1 keeps one of the two tied rows: only the count is checkable.
	cut := eval(`SELECT ?s WHERE { ?s r:tag ?t . } ORDER BY ?t LIMIT 1`)
	if !cut.Loose || cut.Diff([]string{"s"}, [][]string{{b}}) != "" || cut.Diff([]string{"s"}, nil) == "" {
		t.Errorf("a window through a tie: loose=%v", cut.Loose)
	}
	// LIMIT 2 keeps the whole run: nothing is open.
	if whole := eval(`SELECT ?s WHERE { ?s r:tag ?t . } ORDER BY ?t LIMIT 2`); whole.Loose {
		t.Error("a window at a tie boundary reported as loose")
	}
	// Without ORDER BY every row is one run; any window is loose.
	if bag := eval(`SELECT ?s WHERE { ?s r:tag ?t . }`); !slices.Equal(bag.Group, []int{0, 0, 0}) {
		t.Errorf("no ORDER BY: runs %v", bag.Group)
	}
	// SELECT *: the engine may order the columns as its plan does.
	star := eval(`SELECT * WHERE { ?x r:knows ?y . }`)
	if !star.Star || star.Diff([]string{"y", "x"}, [][]string{{b, a}, {c, b}}) != "" {
		t.Errorf("SELECT * rejected a column permutation: %+v", star)
	}
	if named := eval(`SELECT ?x ?y WHERE { ?x r:knows ?y . }`); named.Diff([]string{"y", "x"}, [][]string{{b, a}, {c, b}}) == "" {
		t.Error("a permuted explicit projection passed")
	}
	sort.Strings(star.Vars)
	if !slices.Equal(star.Vars, []string{"x", "y"}) {
		t.Errorf("SELECT * vars = %v", star.Vars)
	}
}

// TestRefRejects: what cannot be evaluated is an error, not an answer.
func TestRefRejects(t *testing.T) {
	w := refWorld(t)
	for _, query := range []string{
		`SELECT ?s WHERE { SIMILAR(?s, [0], 2, "nosuch") . }`,
		`SELECT ?s WHERE { SIMILAR(?s, "ghost", 2, "line") . }`,
		`SELECT ?s WHERE { SIMILAR(?s, [0 0], 2, "line") . }`,
	} {
		q, err := sparql.Parse(query)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := w.Eval(q); err == nil {
			t.Errorf("%s: answered %v", query, res.Rows)
		}
	}
}
