package sparql

import (
	"fmt"
	"strings"

	"ids/internal/dict"
	"ids/internal/expr"
)

// TermOrVar is one position of a triple pattern: either a variable or
// a concrete RDF term.
type TermOrVar struct {
	IsVar bool
	Var   string
	Term  dict.Term
}

// V returns a variable position.
func V(name string) TermOrVar { return TermOrVar{IsVar: true, Var: name} }

// T returns a concrete-term position.
func T(t dict.Term) TermOrVar { return TermOrVar{Term: t} }

func (tv TermOrVar) String() string {
	if tv.IsVar {
		return "?" + tv.Var
	}
	return tv.Term.String()
}

// TriplePattern is one BGP pattern.
type TriplePattern struct {
	S, P, O TermOrVar
}

func (tp TriplePattern) String() string {
	return fmt.Sprintf("%s %s %s .", tp.S, tp.P, tp.O)
}

// Vars returns the variable names used in the pattern.
func (tp TriplePattern) Vars() []string {
	var out []string
	for _, tv := range []TermOrVar{tp.S, tp.P, tp.O} {
		if tv.IsVar {
			out = append(out, tv.Var)
		}
	}
	return out
}

// Filter wraps a FILTER expression.
type Filter struct {
	Expr expr.Expr
}

// UnionPattern is a set-theoretic branch group:
// { ... } UNION { ... } [UNION { ... }]. Every branch must bind the
// same variable set (a documented subset restriction that keeps the
// solution table rectangular).
type UnionPattern struct {
	Branches [][]Element
}

// OptionalPattern is OPTIONAL { ... }: a left join whose variables may
// stay unbound (null) in the solution.
type OptionalPattern struct {
	Body []Element
}

// SimilarPattern is a SIMILAR(?x, <anchor>, k[, "store"]) clause: an
// approximate nearest-neighbour access path over an attached vector
// store, joinable with ordinary triple patterns. The anchor is either
// a stored key (IRI or string literal) or an inline vector literal
// [v1 v2 ...]; ?x binds to the keys of the top-k hits.
type SimilarPattern struct {
	Var string
	// Key is the anchor key when the query vector is looked up from
	// the store; KeyIsIRI records whether it was written as an IRI.
	Key      string
	KeyIsIRI bool
	// Vec is the inline query vector (nil when Key is set).
	Vec []float32
	// K is the number of neighbours requested.
	K int
	// Store optionally names the vector store; empty selects the
	// engine's only attached store.
	Store string
}

func (sp SimilarPattern) String() string {
	anchor := fmt.Sprintf("%q", sp.Key)
	if sp.KeyIsIRI {
		anchor = "<" + sp.Key + ">"
	}
	if sp.Vec != nil {
		anchor = fmt.Sprintf("[%d-dim vector]", len(sp.Vec))
	}
	if sp.Store != "" {
		return fmt.Sprintf("SIMILAR(?%s, %s, %d, %q)", sp.Var, anchor, sp.K, sp.Store)
	}
	return fmt.Sprintf("SIMILAR(?%s, %s, %d)", sp.Var, anchor, sp.K)
}

// Bind is a BIND(expr AS ?var) element: it extends each solution row
// with a computed column. Expression evaluation errors bind the
// variable to null (the W3C "error means unbound" rule).
type Bind struct {
	Var  string
	Expr expr.Expr
}

func (b Bind) String() string {
	return fmt.Sprintf("BIND(%s AS ?%s)", b.Expr, b.Var)
}

// ValuesCell is one position of a VALUES data row: a concrete RDF
// term, or UNDEF (no binding for this row).
type ValuesCell struct {
	Undef bool
	Term  dict.Term
}

func (c ValuesCell) String() string {
	if c.Undef {
		return "UNDEF"
	}
	return c.Term.String()
}

// ValuesPattern is an inline data block: VALUES ?x { t1 t2 ... } or
// VALUES (?x ?y) { (t1 t2) (t3 t4) ... }. It joins with the rest of
// the group like a table of |Rows| solutions over Vars.
type ValuesPattern struct {
	Vars []string
	Rows [][]ValuesCell
}

func (vp ValuesPattern) String() string {
	var sb strings.Builder
	sb.WriteString("VALUES (")
	for i, v := range vp.Vars {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString("?" + v)
	}
	fmt.Fprintf(&sb, ") { %d rows }", len(vp.Rows))
	return sb.String()
}

// Element is a WHERE-clause element: TriplePattern, Filter,
// UnionPattern, OptionalPattern, SimilarPattern, Bind or
// ValuesPattern.
type Element interface{ isElement() }

func (TriplePattern) isElement()   {}
func (Filter) isElement()          {}
func (UnionPattern) isElement()    {}
func (OptionalPattern) isElement() {}
func (SimilarPattern) isElement()  {}
func (Bind) isElement()            {}
func (ValuesPattern) isElement()   {}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Var  string
	Desc bool
}

// Aggregate is one (FUNC(?v) AS ?name) projection item.
type Aggregate struct {
	Func string // count, sum, avg, min, max (lower-cased)
	Var  string // aggregated variable; empty for COUNT(*)
	As   string
}

// Query is a parsed SELECT query.
type Query struct {
	Prefixes map[string]string
	Select   []string // projection order: vars and aggregate aliases; empty means SELECT *
	Distinct bool
	Where    []Element
	OrderBy  []OrderKey
	Limit    int // -1 when absent
	Offset   int
	// Aggregates are the aggregate projection items; when non-empty
	// the query is grouped (by GroupBy, or into a single group).
	Aggregates []Aggregate
	GroupBy    []string
}

// rdfType is the IRI the 'a' keyword expands to.
const rdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

type parser struct {
	lex  lexer
	tok  token
	next token
	q    *Query
}

// Parse parses a query string.
func Parse(input string) (*Query, error) {
	p := &parser{lex: lexer{in: input}, q: &Query{Prefixes: map[string]string{}, Limit: -1}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.parseQuery(); err != nil {
		return nil, err
	}
	return p.q, nil
}

func (p *parser) advance() error {
	p.tok = p.next
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.next = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{
		Code:   ErrSyntax,
		Offset: p.tok.pos,
		Msg:    fmt.Sprintf(format, args...),
	}
}

// unsupported reports a recognised-but-unimplemented W3C construct.
// The feature tag is the stable taxonomy key ("minus", "subquery",
// "property-path", ...), independent of message wording.
func (p *parser) unsupported(feature string) error {
	return &Error{
		Code:    ErrUnsupported,
		Feature: feature,
		Offset:  p.tok.pos,
		Msg:     fmt.Sprintf("%s is not supported in this SPARQL subset", strings.ToUpper(feature)),
	}
}

func (p *parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.isKeyword(kw) {
		return p.errf("expected %s, got %s", kw, p.tok)
	}
	return p.advance()
}

func (p *parser) expect(k tokenKind, what string) error {
	if p.tok.kind != k {
		return p.errf("expected %s, got %s", what, p.tok)
	}
	return p.advance()
}

func (p *parser) parseQuery() error {
	for p.isKeyword("prefix") {
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokPName || !strings.HasSuffix(p.tok.text, ":") {
			return p.errf("expected prefix name, got %s", p.tok)
		}
		ns := strings.TrimSuffix(p.tok.text, ":")
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokIRI {
			return p.errf("expected IRI after PREFIX, got %s", p.tok)
		}
		p.q.Prefixes[ns] = p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
	}
	for _, form := range []string{"ask", "construct", "describe"} {
		if p.isKeyword(form) {
			return p.unsupported(form)
		}
	}
	if err := p.expectKeyword("select"); err != nil {
		return err
	}
	if p.isKeyword("distinct") {
		p.q.Distinct = true
		if err := p.advance(); err != nil {
			return err
		}
	}
	switch {
	case p.tok.kind == tokStar:
		if err := p.advance(); err != nil {
			return err
		}
	case p.tok.kind == tokVar || p.tok.kind == tokLParen:
		for p.tok.kind == tokVar || p.tok.kind == tokLParen {
			if p.tok.kind == tokVar {
				p.q.Select = append(p.q.Select, p.tok.text)
				if err := p.advance(); err != nil {
					return err
				}
				continue
			}
			if err := p.parseAggregate(); err != nil {
				return err
			}
		}
	default:
		return p.errf("expected projection, got %s", p.tok)
	}
	if err := p.expectKeyword("where"); err != nil {
		return err
	}
	if err := p.expect(tokLBrace, "'{'"); err != nil {
		return err
	}
	elems, err := p.parseElements()
	if err != nil {
		return err
	}
	p.q.Where = elems
	if err := p.advance(); err != nil { // consume '}'
		return err
	}
	return p.parseModifiers()
}

// parseElements parses WHERE-group contents up to (not consuming) the
// closing brace.
func (p *parser) parseElements() ([]Element, error) {
	saved := p.q.Where
	p.q.Where = nil
	defer func() { p.q.Where = saved }()

	var out []Element
	flush := func() {
		out = append(out, p.q.Where...)
		p.q.Where = nil
	}
	for p.tok.kind != tokRBrace {
		switch {
		case p.tok.kind == tokEOF:
			return nil, p.errf("unterminated group")
		case p.isKeyword("filter"):
			if err := p.parseFilter(); err != nil {
				return nil, err
			}
			flush()
		case p.isKeyword("optional"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expect(tokLBrace, "'{' after OPTIONAL"); err != nil {
				return nil, err
			}
			body, err := p.parseElements()
			if err != nil {
				return nil, err
			}
			if len(body) == 0 {
				return nil, p.errf("empty OPTIONAL group")
			}
			if err := p.advance(); err != nil { // '}'
				return nil, err
			}
			out = append(out, OptionalPattern{Body: body})
		case p.isKeyword("similar"):
			if err := p.parseSimilar(); err != nil {
				return nil, err
			}
			flush()
		case p.isKeyword("bind"):
			if err := p.parseBind(); err != nil {
				return nil, err
			}
			flush()
		case p.isKeyword("values"):
			if err := p.parseValues(); err != nil {
				return nil, err
			}
			flush()
		case p.isKeyword("minus"):
			return nil, p.unsupported("minus")
		case p.isKeyword("graph"):
			return nil, p.unsupported("graph")
		case p.isKeyword("service"):
			return nil, p.unsupported("service")
		case p.tok.kind == tokLBrace:
			if p.next.kind == tokIdent && strings.EqualFold(p.next.text, "select") {
				return nil, p.unsupported("subquery")
			}
			u, err := p.parseUnion()
			if err != nil {
				return nil, err
			}
			out = append(out, u)
		default:
			if err := p.parseTriple(); err != nil {
				return nil, err
			}
			flush()
		}
	}
	return out, nil
}

// parseUnion parses { group } UNION { group } [UNION { group }]...
func (p *parser) parseUnion() (UnionPattern, error) {
	var u UnionPattern
	for {
		if err := p.expect(tokLBrace, "'{'"); err != nil {
			return u, err
		}
		if p.isKeyword("select") {
			return u, p.unsupported("subquery")
		}
		branch, err := p.parseElements()
		if err != nil {
			return u, err
		}
		if len(branch) == 0 {
			return u, p.errf("empty UNION branch")
		}
		u.Branches = append(u.Branches, branch)
		if err := p.advance(); err != nil { // consume '}'
			return u, err
		}
		if !p.isKeyword("union") {
			break
		}
		if err := p.advance(); err != nil {
			return u, err
		}
	}
	if len(u.Branches) < 2 {
		return u, p.errf("group pattern without UNION (plain groups are not supported)")
	}
	return u, nil
}

// aggregateFuncs are the supported aggregate function names.
var aggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// parseAggregate parses "(FUNC(*|?var) AS ?alias)" in the projection.
func (p *parser) parseAggregate() error {
	if err := p.advance(); err != nil { // '('
		return err
	}
	if p.tok.kind != tokIdent || !aggregateFuncs[strings.ToLower(p.tok.text)] {
		return p.errf("expected aggregate function, got %s", p.tok)
	}
	agg := Aggregate{Func: strings.ToLower(p.tok.text)}
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.expect(tokLParen, "'(' after aggregate function"); err != nil {
		return err
	}
	switch {
	case p.tok.kind == tokStar:
		if agg.Func != "count" {
			return p.errf("%s(*) is not defined", agg.Func)
		}
		if err := p.advance(); err != nil {
			return err
		}
	case p.tok.kind == tokVar:
		agg.Var = p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
	default:
		return p.errf("expected '*' or variable in aggregate")
	}
	if err := p.expect(tokRParen, "')'"); err != nil {
		return err
	}
	if err := p.expectKeyword("as"); err != nil {
		return err
	}
	if p.tok.kind != tokVar {
		return p.errf("expected alias variable after AS")
	}
	agg.As = p.tok.text
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.expect(tokRParen, "')' closing aggregate"); err != nil {
		return err
	}
	p.q.Aggregates = append(p.q.Aggregates, agg)
	p.q.Select = append(p.q.Select, agg.As)
	return nil
}

func (p *parser) parseModifiers() error {
	for {
		switch {
		case p.isKeyword("order"):
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.expectKeyword("by"); err != nil {
				return err
			}
			for {
				key := OrderKey{}
				switch {
				case p.isKeyword("desc") || p.isKeyword("asc"):
					key.Desc = strings.EqualFold(p.tok.text, "desc")
					if err := p.advance(); err != nil {
						return err
					}
					if err := p.expect(tokLParen, "'('"); err != nil {
						return err
					}
					if p.tok.kind != tokVar {
						return p.errf("expected variable in ORDER BY")
					}
					key.Var = p.tok.text
					if err := p.advance(); err != nil {
						return err
					}
					if err := p.expect(tokRParen, "')'"); err != nil {
						return err
					}
				case p.tok.kind == tokVar:
					key.Var = p.tok.text
					if err := p.advance(); err != nil {
						return err
					}
				default:
					return p.errf("expected ORDER BY key, got %s", p.tok)
				}
				p.q.OrderBy = append(p.q.OrderBy, key)
				if p.tok.kind != tokVar && !p.isKeyword("desc") && !p.isKeyword("asc") {
					break
				}
			}
		case p.isKeyword("group"):
			if err := p.advance(); err != nil {
				return err
			}
			if err := p.expectKeyword("by"); err != nil {
				return err
			}
			if p.tok.kind != tokVar {
				return p.errf("expected variable after GROUP BY")
			}
			for p.tok.kind == tokVar {
				p.q.GroupBy = append(p.q.GroupBy, p.tok.text)
				if err := p.advance(); err != nil {
					return err
				}
			}
		case p.isKeyword("limit"):
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokNumber {
				return p.errf("expected number after LIMIT")
			}
			p.q.Limit = int(p.tok.num)
			if err := p.advance(); err != nil {
				return err
			}
		case p.isKeyword("offset"):
			if err := p.advance(); err != nil {
				return err
			}
			if p.tok.kind != tokNumber {
				return p.errf("expected number after OFFSET")
			}
			p.q.Offset = int(p.tok.num)
			if err := p.advance(); err != nil {
				return err
			}
		case p.isKeyword("values"):
			// Trailing VALUES (W3C "inline data" after the query body)
			// joins like an in-group block; append it to WHERE.
			if err := p.parseValues(); err != nil {
				return err
			}
		case p.tok.kind == tokEOF:
			return nil
		default:
			return p.errf("unexpected trailing token %s", p.tok)
		}
	}
}

// resolveTerm builds a dict.Term from the current token for a triple
// position.
func (p *parser) term() (TermOrVar, error) {
	switch p.tok.kind {
	case tokVar:
		tv := V(p.tok.text)
		return tv, p.advance()
	case tokIRI:
		tv := T(dict.Term{Kind: dict.IRI, Value: p.tok.text})
		return tv, p.advance()
	case tokPName:
		parts := strings.SplitN(p.tok.text, ":", 2)
		base, ok := p.q.Prefixes[parts[0]]
		if !ok {
			return TermOrVar{}, p.errf("undeclared prefix %q", parts[0])
		}
		tv := T(dict.Term{Kind: dict.IRI, Value: base + parts[1]})
		return tv, p.advance()
	case tokString:
		tv := T(dict.Term{Kind: dict.Literal, Value: p.tok.text})
		return tv, p.advance()
	case tokNumber:
		tv := T(dict.Term{Kind: dict.Literal, Value: p.tok.text})
		return tv, p.advance()
	case tokIdent:
		if p.tok.text == "a" {
			tv := T(dict.Term{Kind: dict.IRI, Value: rdfType})
			return tv, p.advance()
		}
		return TermOrVar{}, p.errf("unexpected identifier %q in pattern", p.tok.text)
	default:
		return TermOrVar{}, p.errf("unexpected %s in triple pattern", p.tok)
	}
}

func (p *parser) parseTriple() error {
	s, err := p.term()
	if err != nil {
		return err
	}
	for {
		pr, err := p.term()
		if err != nil {
			return err
		}
		// A path operator directly after the predicate term marks a
		// W3C property path (p/q, p*, p+), which this subset does not
		// implement.
		if p.tok.kind == tokSlash || p.tok.kind == tokStar || p.tok.kind == tokPlus {
			return p.unsupported("property-path")
		}
		o, err := p.term()
		if err != nil {
			return err
		}
		p.q.Where = append(p.q.Where, TriplePattern{S: s, P: pr, O: o})
		// ';' continues with the same subject; '.' ends the group.
		if p.tok.kind == tokSemicolon {
			if err := p.advance(); err != nil {
				return err
			}
			continue
		}
		break
	}
	if p.tok.kind == tokDot {
		return p.advance()
	}
	if p.tok.kind == tokRBrace {
		return nil
	}
	return p.errf("expected '.' after triple pattern, got %s", p.tok)
}

// parseSimilar parses SIMILAR(?x, <iri>|"key"|[v1 v2 ...], k[, "store"]).
func (p *parser) parseSimilar() error {
	if err := p.advance(); err != nil { // consume SIMILAR
		return err
	}
	if err := p.expect(tokLParen, "'(' after SIMILAR"); err != nil {
		return err
	}
	if p.tok.kind != tokVar {
		return p.errf("expected variable as first SIMILAR argument, got %s", p.tok)
	}
	sp := SimilarPattern{Var: p.tok.text}
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.expect(tokComma, "','"); err != nil {
		return err
	}
	switch p.tok.kind {
	case tokIRI:
		sp.Key, sp.KeyIsIRI = p.tok.text, true
		if err := p.advance(); err != nil {
			return err
		}
	case tokPName:
		parts := strings.SplitN(p.tok.text, ":", 2)
		base, ok := p.q.Prefixes[parts[0]]
		if !ok {
			return p.errf("undeclared prefix %q", parts[0])
		}
		sp.Key, sp.KeyIsIRI = base+parts[1], true
		if err := p.advance(); err != nil {
			return err
		}
	case tokString:
		sp.Key = p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
	case tokLBracket:
		if err := p.advance(); err != nil {
			return err
		}
		for p.tok.kind == tokNumber {
			sp.Vec = append(sp.Vec, float32(p.tok.num))
			if err := p.advance(); err != nil {
				return err
			}
		}
		if len(sp.Vec) == 0 {
			return p.errf("empty vector literal in SIMILAR")
		}
		if err := p.expect(tokRBracket, "']' closing vector literal"); err != nil {
			return err
		}
	default:
		return p.errf("expected key or vector literal in SIMILAR, got %s", p.tok)
	}
	if err := p.expect(tokComma, "','"); err != nil {
		return err
	}
	if p.tok.kind != tokNumber || p.tok.num != float64(int(p.tok.num)) || int(p.tok.num) <= 0 {
		return p.errf("expected positive integer k in SIMILAR, got %s", p.tok)
	}
	sp.K = int(p.tok.num)
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.kind == tokComma {
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokString {
			return p.errf("expected store name string in SIMILAR, got %s", p.tok)
		}
		sp.Store = p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
	}
	if err := p.expect(tokRParen, "')' closing SIMILAR"); err != nil {
		return err
	}
	p.q.Where = append(p.q.Where, sp)
	// Optional trailing dot.
	if p.tok.kind == tokDot {
		return p.advance()
	}
	return nil
}

func (p *parser) parseFilter() error {
	if err := p.advance(); err != nil { // consume FILTER
		return err
	}
	if p.isKeyword("not") || p.isKeyword("exists") {
		return p.unsupported("not-exists")
	}
	if err := p.expect(tokLParen, "'(' after FILTER"); err != nil {
		return err
	}
	e, err := p.parseOr()
	if err != nil {
		return err
	}
	if err := p.expect(tokRParen, "')' closing FILTER"); err != nil {
		return err
	}
	p.q.Where = append(p.q.Where, Filter{Expr: e})
	// Optional trailing dot.
	if p.tok.kind == tokDot {
		return p.advance()
	}
	return nil
}

// parseBind parses BIND(expr AS ?var).
func (p *parser) parseBind() error {
	if err := p.advance(); err != nil { // consume BIND
		return err
	}
	if err := p.expect(tokLParen, "'(' after BIND"); err != nil {
		return err
	}
	e, err := p.parseOr()
	if err != nil {
		return err
	}
	if err := p.expectKeyword("as"); err != nil {
		return err
	}
	if p.tok.kind != tokVar {
		return p.errf("expected variable after AS in BIND, got %s", p.tok)
	}
	b := Bind{Var: p.tok.text, Expr: e}
	if err := p.advance(); err != nil {
		return err
	}
	if err := p.expect(tokRParen, "')' closing BIND"); err != nil {
		return err
	}
	p.q.Where = append(p.q.Where, b)
	// Optional trailing dot.
	if p.tok.kind == tokDot {
		return p.advance()
	}
	return nil
}

// valuesCell parses one VALUES data cell: UNDEF or a concrete term.
func (p *parser) valuesCell() (ValuesCell, error) {
	if p.isKeyword("undef") {
		return ValuesCell{Undef: true}, p.advance()
	}
	tv, err := p.term()
	if err != nil {
		return ValuesCell{}, err
	}
	if tv.IsVar {
		return ValuesCell{}, p.errf("variable ?%s not allowed in VALUES data", tv.Var)
	}
	return ValuesCell{Term: tv.Term}, nil
}

// parseValues parses an inline data block in either form:
//
//	VALUES ?x { t1 t2 ... }
//	VALUES (?x ?y) { (t1 t2) (UNDEF t4) ... }
func (p *parser) parseValues() error {
	if err := p.advance(); err != nil { // consume VALUES
		return err
	}
	vp := ValuesPattern{}
	single := false
	switch p.tok.kind {
	case tokVar:
		single = true
		vp.Vars = []string{p.tok.text}
		if err := p.advance(); err != nil {
			return err
		}
	case tokLParen:
		if err := p.advance(); err != nil {
			return err
		}
		for p.tok.kind == tokVar {
			vp.Vars = append(vp.Vars, p.tok.text)
			if err := p.advance(); err != nil {
				return err
			}
		}
		if len(vp.Vars) == 0 {
			return p.errf("VALUES requires at least one variable")
		}
		if err := p.expect(tokRParen, "')' closing VALUES variable list"); err != nil {
			return err
		}
	default:
		return p.errf("expected variable or '(' after VALUES, got %s", p.tok)
	}
	if err := p.expect(tokLBrace, "'{' opening VALUES data block"); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return p.errf("unterminated VALUES data block")
		}
		if single {
			c, err := p.valuesCell()
			if err != nil {
				return err
			}
			vp.Rows = append(vp.Rows, []ValuesCell{c})
			continue
		}
		if err := p.expect(tokLParen, "'(' opening VALUES data row"); err != nil {
			return err
		}
		var row []ValuesCell
		for p.tok.kind != tokRParen {
			if p.tok.kind == tokEOF {
				return p.errf("unterminated VALUES data row")
			}
			c, err := p.valuesCell()
			if err != nil {
				return err
			}
			row = append(row, c)
		}
		if len(row) != len(vp.Vars) {
			return p.errf("VALUES data row has %d terms, want %d", len(row), len(vp.Vars))
		}
		if err := p.advance(); err != nil { // ')'
			return err
		}
		vp.Rows = append(vp.Rows, row)
	}
	if err := p.advance(); err != nil { // '}'
		return err
	}
	p.q.Where = append(p.q.Where, vp)
	// Optional trailing dot.
	if p.tok.kind == tokDot {
		return p.advance()
	}
	return nil
}

// Expression grammar: or -> and ('||' and)*; and -> cmp ('&&' cmp)*;
// cmp -> sum (op sum)?; sum -> prod (('+'|'-') prod)*;
// prod -> unary (('*'|'/') unary)*; unary -> '!' unary | primary.
func (p *parser) parseOr() (expr.Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	children := []expr.Expr{left}
	for p.tok.kind == tokOr {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	if len(children) == 1 {
		return left, nil
	}
	return &expr.Or{Children: children}, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseCmp()
	if err != nil {
		return nil, err
	}
	children := []expr.Expr{left}
	for p.tok.kind == tokAnd {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseCmp()
		if err != nil {
			return nil, err
		}
		children = append(children, right)
	}
	if len(children) == 1 {
		return left, nil
	}
	return &expr.And{Children: children}, nil
}

func (p *parser) parseCmp() (expr.Expr, error) {
	left, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	var op expr.CmpOp
	switch p.tok.kind {
	case tokEq:
		op = expr.EQ
	case tokNe:
		op = expr.NE
	case tokLt:
		op = expr.LT
	case tokLe:
		op = expr.LE
	case tokGt:
		op = expr.GT
	case tokGe:
		op = expr.GE
	default:
		return left, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	right, err := p.parseSum()
	if err != nil {
		return nil, err
	}
	return &expr.Cmp{Op: op, L: left, R: right}, nil
}

func (p *parser) parseSum() (expr.Expr, error) {
	left, err := p.parseProd()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := expr.Add
		if p.tok.kind == tokMinus {
			op = expr.Sub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseProd()
		if err != nil {
			return nil, err
		}
		left = &expr.Arith{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseProd() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash {
		op := expr.Mul
		if p.tok.kind == tokSlash {
			op = expr.Div
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &expr.Arith{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.tok.kind == tokBang {
		if err := p.advance(); err != nil {
			return nil, err
		}
		child, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &expr.Not{Child: child}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr.Expr, error) {
	switch p.tok.kind {
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		return e, nil
	case tokVar:
		v := &expr.Var{Name: p.tok.text}
		return v, p.advance()
	case tokNumber:
		c := &expr.Const{Val: expr.Float(p.tok.num)}
		return c, p.advance()
	case tokString:
		c := &expr.Const{Val: expr.String(p.tok.text)}
		return c, p.advance()
	case tokIdent, tokPName:
		name := p.tok.text
		if strings.EqualFold(name, "true") {
			c := &expr.Const{Val: expr.Bool(true)}
			return c, p.advance()
		}
		if strings.EqualFold(name, "false") {
			c := &expr.Const{Val: expr.Bool(false)}
			return c, p.advance()
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokLBrace && (strings.EqualFold(name, "exists") || strings.EqualFold(name, "not")) {
			return nil, p.unsupported("not-exists")
		}
		if p.tok.kind != tokLParen {
			return nil, p.errf("expected '(' after function name %q", name)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		call := &expr.Call{Name: name}
		if p.tok.kind != tokRParen {
			for {
				arg, err := p.parseOr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, arg)
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
		}
		if err := p.expect(tokRParen, "')' closing call"); err != nil {
			return nil, err
		}
		return call, nil
	default:
		return nil, p.errf("unexpected %s in expression", p.tok)
	}
}
