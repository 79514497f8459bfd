package conformance

import (
	"fmt"
	"math/rand"
	"strings"
)

// Query is one generated conformance case: the text, the generator
// category it came from, and the taxonomy bucket the harness expects
// it to land in. Categories are homogeneous — every query in a
// category shares one expectation — which is what makes the
// per-category success-rate table meaningful.
type Query struct {
	ID       int    `json:"id"`
	Category string `json:"category"`
	Text     string `json:"text"`
	// Expect is "ok", "unsupported-feature/<kw>" or "parse-error".
	Expect string `json:"expect"`
}

// Generate emits n queries from the given seed. Same seed, same
// corpus — byte for byte — so CI and a developer's laptop argue about
// the same queries.
func Generate(seed int64, n int) []Query {
	r := rand.New(rand.NewSource(seed))
	total := 0
	for _, c := range categories {
		total += c.weight
	}
	out := make([]Query, 0, n+n/10)
	for i := 0; i < n; i++ {
		roll := r.Intn(total)
		for _, c := range categories {
			if roll < c.weight {
				text, expect := c.gen(r)
				out = append(out, Query{ID: i, Category: c.name, Text: text, Expect: expect})
				break
			}
			roll -= c.weight
		}
	}
	// One udf query per ten, from a stream of its own, after the
	// weighted corpus: adding it left every other query as it was.
	u := rand.New(rand.NewSource(seed ^ 0x75646621))
	for i := n; i < n+n/10; i++ {
		out = append(out, Query{ID: i, Category: CategoryUDF, Text: genUDF(u), Expect: BucketOK})
	}
	return out
}

// CategoryUDF is the category of the queries that call the world's
// UDFs (registerUDFs), the paper's FILTER path.
const CategoryUDF = "udf"

type category struct {
	name   string
	weight int
	gen    func(r *rand.Rand) (text, expect string)
}

// ok wraps a generator whose queries the engine must answer as the
// reference does.
func ok(gen func(r *rand.Rand) string) func(*rand.Rand) (string, string) {
	return func(r *rand.Rand) (string, string) { return gen(r), BucketOK }
}

var categories = []category{
	// Supported features: expect "ok".
	{"basic-scan", 10, ok(genBasicScan)},
	{"join", 10, ok(genJoin)},
	{"filter", 10, ok(genFilter)},
	{"union", 7, ok(genUnion)},
	{"optional", 7, ok(genOptional)},
	{"distinct", 6, ok(genDistinct)},
	{"order-slice", 8, ok(genOrderSlice)},
	{"aggregate", 8, ok(genAggregate)},
	{"similar", 6, ok(genSimilar)},
	{"bind", 9, ok(genBind)},
	{"values", 9, ok(genValues)},
	{"compound", 5, ok(genCompound)},
	// Recognised W3C SPARQL this subset deliberately rejects: expect
	// a stable unsupported-feature tag, never a raw syntax error.
	{"minus", 3, genMinus},
	{"not-exists", 3, genNotExists},
	{"property-path", 3, genPropertyPath},
	{"subquery", 3, genSubquery},
	{"ask", 3, genAsk},
	{"graph-service", 3, genGraphService},
	// Malformed input: expect "parse-error".
	{"malformed", 9, genMalformed},
}

// Vocabulary pickers.

func ent(r *rand.Rand) string { return "<" + EntityIRI(r.Intn(WorldEntities)) + ">" }

func tagLit(r *rand.Rand) string { return fmt.Sprintf("\"tag%d\"", r.Intn(WorldTags)) }

func pred(r *rand.Rand) string {
	ps := []string{PredTag, PredScore, PredDesc, PredLinks, PredAlt}
	return "<" + ps[r.Intn(len(ps))] + ">"
}

func genBasicScan(r *rand.Rand) string {
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf(`SELECT ?s ?o WHERE { ?s %s ?o . }`, pred(r))
	case 1:
		return fmt.Sprintf(`SELECT ?p ?o WHERE { %s ?p ?o . }`, ent(r))
	case 2:
		return fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> %s . }`, PredTag, tagLit(r))
	default:
		return `SELECT ?s ?p ?o WHERE { ?s ?p ?o . }`
	}
}

func genJoin(r *rand.Rand) string {
	switch r.Intn(3) {
	case 0:
		return fmt.Sprintf(`SELECT ?a ?t WHERE { ?a <%s> ?b . ?b <%s> ?t . }`, PredLinks, PredTag)
	case 1:
		return fmt.Sprintf(`SELECT ?a ?v WHERE { ?a <%s> ?b . ?b <%s> ?c . ?c <%s> ?v . }`,
			PredLinks, PredLinks, PredScore)
	default:
		q := fmt.Sprintf(`SELECT ?s ?t ?v WHERE { ?s <%s> ?t . ?s <%s> ?v . `, PredTag, PredScore)
		if r.Intn(2) == 0 {
			q += fmt.Sprintf(`?s <%s> ?d . `, PredDesc)
		}
		return q + `}`
	}
}

// genFilter draws one of eight shapes with a single Intn(8): a power-
// of-two bound is one draw whose low bits are what Intn(4) returned
// before the last four shapes existed, so the rest of the corpus — and
// every other category's count — stays where it was. The same trick
// widens genDistinct and genOrderSlice.
func genFilter(r *rand.Rand) string {
	lo := r.Intn(101)
	hi := lo + 1 + r.Intn(40)
	base := fmt.Sprintf(`?s <%s> ?v . `, PredScore)
	switch r.Intn(8) {
	case 4: // two graph terms compared by value: numbers, then IRIs
		return fmt.Sprintf(`SELECT ?a ?b WHERE { ?a <%s> ?b . ?a <%s> ?x . ?b <%s> ?y . FILTER(?x < ?y) }`,
			PredLinks, PredScore, PredScore)
	case 5:
		return fmt.Sprintf(`SELECT ?a ?b WHERE { ?a <%s> ?b . FILTER(?a > ?b) }`, PredLinks)
	case 0:
		return fmt.Sprintf(`SELECT ?s ?v WHERE { %sFILTER(?v >= %d && ?v < %d) }`, base, lo, hi)
	case 1:
		return fmt.Sprintf(`SELECT ?s WHERE { %sFILTER(?v * 2 > %d || ?v = %d) }`, base, hi, lo)
	case 2, 6:
		return fmt.Sprintf(`SELECT ?s ?t WHERE { ?s <%s> ?t . FILTER(?t != %s) }`, PredTag, tagLit(r))
	default:
		return fmt.Sprintf(`SELECT ?s WHERE { %sFILTER(?v + %d <= %d) }`, base, r.Intn(10), hi)
	}
}

func genUnion(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		return fmt.Sprintf(`SELECT ?s ?t WHERE { { ?s <%s> ?t . } UNION { ?s <%s> ?t . } }`,
			PredTag, PredAlt)
	}
	return fmt.Sprintf(`SELECT ?s WHERE { { ?s <%s> %s . } UNION { ?s <%s> %s . } }`,
		PredTag, tagLit(r), PredTag, tagLit(r))
}

func genOptional(r *rand.Rand) string {
	if r.Intn(2) == 0 {
		return fmt.Sprintf(`SELECT ?s ?d WHERE { ?s <%s> ?t . OPTIONAL { ?s <%s> ?d . } }`,
			PredTag, PredDesc)
	}
	return fmt.Sprintf(
		`SELECT ?s ?d ?l WHERE { ?s <%s> ?v . OPTIONAL { ?s <%s> ?d . } OPTIONAL { ?s <%s> ?l . } }`,
		PredScore, PredDesc, PredLinks)
}

// genDistinct projects a strict subset of the pattern's variables, so
// DISTINCT has duplicates to remove that are not duplicate solutions;
// shape 2 slices what is left, shape 3 counts a bag DISTINCT must not
// touch (its UNION yields the same ?s twice).
func genDistinct(r *rand.Rand) string {
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf(`SELECT DISTINCT ?t WHERE { ?s <%s> ?t . } ORDER BY ?t`, PredTag)
	case 2:
		return fmt.Sprintf(`SELECT DISTINCT ?t WHERE { ?s <%s> ?t . ?s <%s> ?v . } ORDER BY DESC(?t) LIMIT 3 OFFSET 1`,
			PredTag, PredScore)
	case 3:
		lit := tagLit(r)
		return fmt.Sprintf(`SELECT DISTINCT (COUNT(?s) AS ?n) WHERE { { ?s <%s> %s . } UNION { ?s <%s> %s . } }`,
			PredTag, lit, PredAlt, lit)
	}
	return fmt.Sprintf(`SELECT DISTINCT ?s WHERE { ?s <%s> %s . } ORDER BY ?s`, PredTag, tagLit(r))
}

// genOrderSlice exercises ORDER BY/LIMIT/OFFSET including the edge
// cases (LIMIT 0, OFFSET past the end) over each kind of sort key: a
// numeric literal, an IRI, a text literal, and an OPTIONAL variable
// that is unbound on half the rows. The sort key list always ends in
// the subject, so every window is well-defined.
func genOrderSlice(r *rand.Rand) string {
	shape := r.Intn(8)
	body := fmt.Sprintf(`?s <%s> ?v . `, PredScore)
	switch shape >> 1 {
	case 1:
		body = fmt.Sprintf(`?s <%s> ?v . `, PredLinks)
	case 2:
		body = fmt.Sprintf(`?s <%s> ?v . `, PredTag)
	case 3:
		body = fmt.Sprintf(`?s <%s> ?x . OPTIONAL { ?s <%s> ?v . } `, PredScore, PredDesc)
	}
	key := "?v"
	if shape&1 == 0 {
		key = "DESC(?v)"
	}
	q := fmt.Sprintf(`SELECT ?s ?v WHERE { %s} ORDER BY %s ?s`, body, key)
	switch r.Intn(4) {
	case 0:
		q += " LIMIT 0"
	case 1:
		q += fmt.Sprintf(" LIMIT %d", 1+r.Intn(12))
	case 2:
		q += fmt.Sprintf(" LIMIT %d OFFSET %d", 1+r.Intn(12), r.Intn(10))
	default:
		q += fmt.Sprintf(" LIMIT 5 OFFSET %d", 200+r.Intn(100)) // past the end
	}
	return q
}

func genAggregate(r *rand.Rand) string {
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf(`SELECT (COUNT(?s) AS ?n) WHERE { ?s <%s> ?d . }`, PredDesc)
	case 1:
		return fmt.Sprintf(
			`SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s <%s> ?t . } GROUP BY ?t ORDER BY ?t`, PredTag)
	case 2:
		return fmt.Sprintf(
			`SELECT ?t (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) WHERE { ?s <%s> ?t . ?s <%s> ?v . } GROUP BY ?t ORDER BY ?t`,
			PredTag, PredScore)
	default:
		return fmt.Sprintf(
			`SELECT ?t (AVG(?v) AS ?m) WHERE { ?s <%s> ?t . ?s <%s> ?v . FILTER(?v > %d) } GROUP BY ?t ORDER BY ?t`,
			PredTag, PredScore, r.Intn(60))
	}
}

func genSimilar(r *rand.Rand) string {
	k := 1 + r.Intn(8)
	vec := fmt.Sprintf("[%d %d]", r.Intn(8), r.Intn(6))
	switch r.Intn(3) {
	case 0:
		return fmt.Sprintf(`SELECT ?c WHERE { SIMILAR(?c, %s, %d, %q) . }`, vec, k, VecSpace)
	case 1:
		return fmt.Sprintf(`SELECT ?c ?v WHERE { SIMILAR(?c, %s, %d, %q) . ?c <%s> ?v . } ORDER BY ?v`,
			vec, k, VecSpace, PredScore)
	default:
		return fmt.Sprintf(`SELECT ?c WHERE { SIMILAR(?c, %s, %d, %q) . }`, ent(r), k, VecSpace)
	}
}

func genBind(r *rand.Rand) string {
	a, b := 1+r.Intn(5), r.Intn(20)
	switch r.Intn(4) {
	case 0:
		// ?v is a total order and a>0 keeps ?w one too.
		return fmt.Sprintf(`SELECT ?s ?w WHERE { ?s <%s> ?v . BIND(?v * %d + %d AS ?w) } ORDER BY ?w`,
			PredScore, a, b)
	case 1:
		return fmt.Sprintf(`SELECT ?s ?d WHERE { ?s <%s> ?v . BIND(?v - %d AS ?d) FILTER(?d > 0) }`,
			PredScore, 20+r.Intn(60))
	case 2:
		return fmt.Sprintf(`SELECT ?t ?f WHERE { ?s <%s> ?t . BIND(?t = %s AS ?f) }`, PredTag, tagLit(r))
	default:
		return fmt.Sprintf(
			`SELECT ?b (COUNT(?s) AS ?n) WHERE { ?s <%s> ?v . BIND(?v > %d AS ?b) } GROUP BY ?b`,
			PredScore, r.Intn(101))
	}
}

func genValues(r *rand.Rand) string {
	ents := func(n int) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = ent(r)
		}
		return strings.Join(parts, " ")
	}
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf(`SELECT ?s ?v WHERE { VALUES ?s { %s } ?s <%s> ?v . }`,
			ents(2+r.Intn(3)), PredScore)
	case 1:
		return fmt.Sprintf(`SELECT ?s ?t WHERE { ?s <%s> ?t . VALUES ?t { %s %s } }`,
			PredTag, tagLit(r), tagLit(r))
	case 2:
		return fmt.Sprintf(
			`SELECT ?s ?t ?v WHERE { VALUES (?s ?t) { (%s %s) (UNDEF %s) } ?s <%s> ?t . ?s <%s> ?v . }`,
			ent(r), tagLit(r), tagLit(r), PredTag, PredScore)
	default:
		// Trailing VALUES after the modifiers, with one term that is
		// not in the dictionary (its row is dropped).
		return fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> %s . } VALUES ?s { %s <http://c/nosuch> }`,
			PredTag, tagLit(r), ents(2))
	}
}

func genCompound(r *rand.Rand) string {
	return fmt.Sprintf(
		`SELECT ?s ?w WHERE { VALUES ?s { %s %s %s } ?s <%s> ?v . OPTIONAL { ?s <%s> ?d . } BIND(?v * %d AS ?w) FILTER(?w >= 0) } ORDER BY ?w ?s`,
		ent(r), ent(r), ent(r), PredScore, PredDesc, 1+r.Intn(4))
}

// genUDF draws FILTER chains of one to four conjuncts that mix calls
// and comparisons: nested calls, the same function twice, calls over
// text, over an OPTIONAL column that is unbound on half the rows, and
// on both sides of a join.
func genUDF(r *rand.Rand) string {
	conj := func(v string) string {
		switch r.Intn(7) {
		case 0:
			return fmt.Sprintf("u.tiny(%s) < %d", v, 2+r.Intn(6))
		case 1:
			return fmt.Sprintf("u.model(%s) > 0.%d", v, r.Intn(8))
		case 2:
			return fmt.Sprintf("u.fragile(%s)", v)
		case 3:
			return fmt.Sprintf("dyn.live(%s) >= %d", v, r.Intn(100))
		case 4:
			return fmt.Sprintf("u.model(u.tiny(%s)) < 0.%d", v, 1+r.Intn(9))
		case 5:
			return fmt.Sprintf("u.tiny(%s) + u.tiny(%s) > %d", v, v, r.Intn(9))
		}
		return fmt.Sprintf("%s > %d", v, r.Intn(70))
	}
	chain := func(v string) string {
		parts := make([]string, 1+r.Intn(4))
		for i := range parts {
			parts[i] = conj(v)
		}
		return strings.Join(parts, " && ")
	}
	switch r.Intn(4) {
	case 0:
		return fmt.Sprintf(`SELECT ?s ?v WHERE { ?s <%s> ?v . FILTER(%s) }`, PredScore, chain("?v"))
	case 1:
		return fmt.Sprintf(`SELECT ?a ?w WHERE { ?a <%s> ?v . FILTER(%s) ?a <%s> ?b . ?b <%s> ?w . FILTER(%s) }`,
			PredScore, chain("?v"), PredLinks, PredScore, chain("?w"))
	case 2:
		return fmt.Sprintf(`SELECT ?s ?d WHERE { ?s <%s> ?v . OPTIONAL { ?s <%s> ?d . } FILTER(%s || %s) }`,
			PredScore, PredDesc, conj("?v"), conj("?d"))
	}
	return fmt.Sprintf(`SELECT ?s ?t WHERE { ?s <%s> ?t . FILTER(%s) }`, PredTag, chain([]string{"?t", "?s"}[r.Intn(2)]))
}

// Unsupported-feature generators: well-formed W3C SPARQL the parser
// must reject with the exact feature tag.

func genMinus(r *rand.Rand) (string, string) {
	return fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> ?t . MINUS { ?s <%s> ?d . } }`,
		PredTag, PredDesc), "unsupported-feature/minus"
}

func genNotExists(r *rand.Rand) (string, string) {
	return fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> ?t . FILTER NOT EXISTS { ?s <%s> ?d . } }`,
		PredTag, PredDesc), "unsupported-feature/not-exists"
}

func genPropertyPath(r *rand.Rand) (string, string) {
	if r.Intn(2) == 0 {
		return fmt.Sprintf(`SELECT ?a ?t WHERE { ?a <%s>/<%s> ?t . }`, PredLinks, PredTag),
			"unsupported-feature/property-path"
	}
	return fmt.Sprintf(`SELECT ?a ?b WHERE { ?a <%s>+ ?b . }`, PredLinks),
		"unsupported-feature/property-path"
}

func genSubquery(r *rand.Rand) (string, string) {
	return fmt.Sprintf(`SELECT ?s WHERE { { SELECT ?s WHERE { ?s <%s> ?t . } } }`, PredTag),
		"unsupported-feature/subquery"
}

func genAsk(r *rand.Rand) (string, string) {
	return fmt.Sprintf(`ASK { ?s <%s> %s . }`, PredTag, tagLit(r)), "unsupported-feature/ask"
}

func genGraphService(r *rand.Rand) (string, string) {
	if r.Intn(2) == 0 {
		return fmt.Sprintf(`SELECT ?s WHERE { GRAPH <http://c/g> { ?s <%s> ?t . } }`, PredTag),
			"unsupported-feature/graph"
	}
	return fmt.Sprintf(`SELECT ?s WHERE { SERVICE <http://c/remote> { ?s <%s> ?t . } }`, PredTag),
		"unsupported-feature/service"
}

// genMalformed emits input that no SPARQL dialect accepts; the parser
// must return a structured syntax error, never panic or mislabel it
// as unsupported.
func genMalformed(r *rand.Rand) (string, string) {
	forms := []string{
		fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> ?o .`, PredTag),
		fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> "unterminated . }`, PredTag),
		`SELECT ?s WHERE { ?s %% ?o . }`,
		`SELECT WHERE { ?s ?p ?o . }`,
		fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> ?o . } LIMIT x`, PredTag),
		fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> ?o . } ORDER ?s`, PredTag),
		fmt.Sprintf(`SELECT ?s WHERE { ?s <%s> ?v . FILTER(?v > ) }`, PredScore),
		`SELECT ?s WHERE { BIND( } `,
		`SELECT ?s WHERE { VALUES ?s { <http://c/e0>`,
		`SELECT ?s WHERE { VALUES (?s ?t) { (<http://c/e0>) } }`,
	}
	return forms[r.Intn(len(forms))], BucketParseError
}
