// Package ref is the reference evaluator the engine's answers are
// checked against. It shares the engine's lexer/parser (it walks the
// parsed sparql.Query, never a plan), the UDF bodies (through
// udf.Registry.CallUDF on concrete values) and the HNSW index (the hit
// list of the same Store.SearchHNSW call; the index has its own exact
// oracle) — and nothing else: no planner, no operators, no ranks, no
// arenas, no dictionary IDs, its own expression walk and value order.
// Everything is a nested loop over the decoded triple list. The dialect
// it implements is written down in DESIGN.md §9 and §11.
package ref

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/sparql"
	"ids/internal/udf"
	"ids/internal/vecstore"
)

// Triple is one decoded graph triple.
type Triple struct{ S, P, O dict.Term }

// World is what a query is evaluated over (kg.Graph.Triples decodes a
// graph into Triples). UDFs and Vectors may be nil.
type World struct {
	Triples []Triple
	UDFs    *udf.Registry
	Vectors map[string]*vecstore.Store
}

// val is one binding: how it prints (N-Triples syntax for a graph term,
// the literal form of a computed value), what an expression sees of it,
// and whether it is a graph term. The zero val is unbound.
type val struct {
	show string
	x    expr.Value
	term bool
}

var unbound val

// termVal binds a graph term: a literal with a numeric body is that
// number to an expression, any other term is its text.
func termVal(t dict.Term) val {
	if f, err := strconv.ParseFloat(t.Value, 64); err == nil && t.Kind == dict.Literal {
		return val{t.String(), expr.Float(f), true}
	}
	return val{t.String(), expr.String(t.Value), true}
}

// computed binds an expression or aggregate result; null is unbound.
func computed(x expr.Value) val {
	if x.Kind == expr.KindNull {
		return unbound
	}
	return val{show: x.String(), x: x}
}

func number(f float64) val { return computed(expr.Float(f)) }
func boolean(b bool) val   { return computed(expr.Bool(b)) }

// truthy is the effective boolean value: a graph term is true, a
// computed number unless zero, a computed string unless empty.
func (v val) truthy() bool { return v.term || v.x.Truthy() }

// order is the ORDER BY total order: unbound, then numbers by value
// (NaN first, as cmp.Compare has it), then text, then false, then true.
// The kinds happen to be declared in that order.
func order(a, b val) int {
	x, y := a.x, b.x
	switch {
	case x.Kind != y.Kind:
		return cmp.Compare(x.Kind, y.Kind)
	case x.Kind == expr.KindString:
		return strings.Compare(x.Str, y.Str)
	case x.Kind == expr.KindBool:
		return strings.Compare(a.show, b.show) // "false" < "true"
	}
	return cmp.Compare(x.Num, y.Num)
}

// rel is a bag of solutions over a fixed header; a variable in the
// header is in scope even where a row leaves it unbound.
type rel struct {
	vars []string
	rows [][]val
}

func (r rel) col(name string) int { return slices.Index(r.vars, name) }

// cols is col for each name.
func (r rel) cols(names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = r.col(n)
	}
	return out
}

// pick copies the given columns of a row; column -1 is unbound.
func pick(row []val, cols []int) []val {
	out := make([]val, len(cols))
	for i, c := range cols {
		if c >= 0 {
			out[i] = row[c]
		}
	}
	return out
}

// join is the nested-loop natural join: rows combine when they agree on
// every shared variable, and unbound agrees only with unbound (the
// dialect's documented departure from W3C compatibility). With left
// set, an unmatched row of a survives with b's variables unbound.
func join(a, b rel, left bool) rel {
	out := rel{vars: slices.Clone(a.vars)}
	var shared [][2]int
	var extra []int
	for j, v := range b.vars {
		if i := a.col(v); i >= 0 {
			shared = append(shared, [2]int{i, j})
		} else {
			out.vars = append(out.vars, v)
			extra = append(extra, j)
		}
	}
	for _, ra := range a.rows {
		matched := false
		for _, rb := range b.rows {
			if !slices.ContainsFunc(shared, func(s [2]int) bool { return ra[s[0]] != rb[s[1]] }) {
				matched = true
				out.rows = append(out.rows, append(slices.Clone(ra), pick(rb, extra)...))
			}
		}
		if left && !matched {
			out.rows = append(out.rows, append(slices.Clone(ra), make([]val, len(extra))...))
		}
	}
	return out
}

// run is one evaluation; err is the first failure met (only SIMILAR
// can fail), after which the result no longer matters.
type run struct {
	*World
	err error
}

// scan matches one triple pattern against every triple.
func (w *World) scan(tp sparql.TriplePattern) rel {
	var out rel
	pos := [3]sparql.TermOrVar{tp.S, tp.P, tp.O}
	for _, v := range tp.Vars() {
		if out.col(v) < 0 {
			out.vars = append(out.vars, v)
		}
	}
	for _, t := range w.Triples {
		row := make([]val, len(out.vars))
		ok := true
		for i, have := range [3]dict.Term{t.S, t.P, t.O} {
			if p := pos[i]; !p.IsVar {
				ok = ok && p.Term == have
			} else if c := out.col(p.Var); row[c] == unbound {
				row[c] = termVal(have)
			} else {
				ok = ok && row[c] == termVal(have) // repeated variable
			}
		}
		if ok {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// known reports whether a term occurs in the graph — the reference's
// reading of "is in the dictionary".
func (w *World) known(t dict.Term) bool {
	return slices.ContainsFunc(w.Triples, func(x Triple) bool { return x.S == t || x.P == t || x.O == t })
}

// values is an inline data block: UNDEF is unbound, and a row naming a
// term the graph does not contain is dropped (dialect, DESIGN.md §11).
func (w *World) values(vp sparql.ValuesPattern) rel {
	out := rel{vars: vp.Vars}
	for _, src := range vp.Rows {
		row := make([]val, len(src))
		ok := true
		for i, c := range src {
			if !c.Undef {
				row[i] = termVal(c.Term)
				ok = ok && w.known(c.Term)
			}
		}
		if ok {
			out.rows = append(out.rows, row)
		}
	}
	return out
}

// similar binds the clause variable to the graph terms of the top-k
// hits: a key is the IRI of that name if the graph has one, else the
// plain literal, else it is dropped.
func (r *run) similar(sp sparql.SimilarPattern) rel {
	out := rel{vars: []string{sp.Var}}
	vs, q := r.Vectors[sp.Store], sp.Vec
	if sp.Store == "" && len(r.Vectors) == 1 {
		for _, vs = range r.Vectors { // the sole store needs no name
		}
	}
	if vs == nil {
		r.err = errors.Join(r.err, fmt.Errorf("ref: SIMILAR: no vector store %q", sp.Store))
		return out
	}
	var hits []vecstore.Result
	var err error
	if q == nil {
		q, err = vs.Get(sp.Key)
	}
	if err == nil {
		hits, _, err = vs.SearchHNSW(q, sp.K, 0)
	}
	r.err = errors.Join(r.err, err)
	for _, h := range hits {
		for _, t := range []dict.Term{{Kind: dict.IRI, Value: h.Key}, {Kind: dict.Literal, Value: h.Key}} {
			if r.known(t) {
				out.rows = append(out.rows, []val{termVal(t)})
				break
			}
		}
	}
	return out
}

// each calls fn with the elements of one kind, in query order.
func each[T sparql.Element](elems []sparql.Element, fn func(T)) {
	for _, el := range elems {
		if n, ok := el.(T); ok {
			fn(n)
		}
	}
}

// group evaluates one group graph pattern in the order the dialect
// fixes, which is the order of the lines below.
func (r *run) group(elems []sparql.Element) rel {
	cur := rel{rows: [][]val{{}}}
	seeded := false // has anything joined the one empty solution yet
	add := func(next rel, left bool) { cur, seeded = join(cur, next, left), true }
	each(elems, func(n sparql.TriplePattern) { add(r.scan(n), false) })
	each(elems, func(n sparql.ValuesPattern) { add(r.values(n), false) })
	each(elems, func(n sparql.SimilarPattern) { add(r.similar(n), false) })
	each(elems, func(n sparql.UnionPattern) {
		var all rel
		for i, branch := range n.Branches {
			b := r.group(branch)
			if i == 0 {
				all.vars = b.vars
			}
			for _, row := range b.rows { // branches bind one variable set, in any order
				all.rows = append(all.rows, pick(row, b.cols(all.vars)))
			}
		}
		add(all, false)
	})
	// A leading OPTIONAL, with nothing mandatory before it, is its body:
	// there is no solution on the left to preserve.
	each(elems, func(n sparql.OptionalPattern) { add(r.group(n.Body), seeded) })
	each(elems, func(n sparql.Bind) {
		for i, row := range cur.rows {
			v, err := r.eval(n.Expr, cur, row)
			if err != nil {
				v = unbound // an erroring BIND leaves the variable unbound
			}
			cur.rows[i] = append(row, v)
		}
		cur.vars = append(slices.Clone(cur.vars), n.Var)
	})
	each(elems, func(n sparql.Filter) {
		cur.rows = slices.DeleteFunc(cur.rows, func(row []val) bool {
			v, err := r.eval(n.Expr, cur, row)
			return err != nil || !v.truthy() // an erroring FILTER drops the row
		})
	})
	return cur
}

var errEval = errors.New("ref: expression error")

// eval walks an expression over one row, left to right; the first error
// met is the expression's (the value returned with it means nothing),
// and && / || stop at the first operand that decides them.
func (r *run) eval(e expr.Expr, in rel, row []val) (val, error) {
	sub := func(e expr.Expr) (val, error) { return r.eval(e, in, row) }
	both := func(lhs, rhs expr.Expr) (val, val, bool) { // ok: two bound operands
		a, aerr := sub(lhs)
		b, berr := sub(rhs)
		return a, b, aerr == nil && berr == nil && a != unbound && b != unbound
	}
	decide := func(operands []expr.Expr, stop bool) (val, error) { // && stops at false, || at true
		for _, c := range operands {
			if v, err := sub(c); err != nil || v.truthy() == stop {
				return boolean(stop), err
			}
		}
		return boolean(!stop), nil
	}
	switch n := e.(type) {
	case *expr.Const:
		return computed(n.Val), nil
	case *expr.Var:
		if c := in.col(n.Name); c >= 0 && row[c] != unbound {
			return row[c], nil
		}
	case *expr.Cmp:
		a, b, ok := both(n.L, n.R)
		switch c := order(a, b); {
		case !ok:
		case a.x.Kind == b.x.Kind:
			return boolean([]bool{c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0}[n.Op]), nil
		case n.Op == expr.EQ || n.Op == expr.NE: // number vs text: only = and != answer
			return boolean(n.Op == expr.NE), nil
		}
	case *expr.Arith:
		a, b, ok := both(n.L, n.R)
		x, y := a.x.Num, b.x.Num
		if ok && a.x.Kind == expr.KindFloat && b.x.Kind == expr.KindFloat && (n.Op != expr.Div || y != 0) {
			return number([]float64{x + y, x - y, x * y, x / y}[n.Op]), nil
		}
	case *expr.And:
		return decide(n.Children, false)
	case *expr.Or:
		return decide(n.Children, true)
	case *expr.Not:
		v, err := sub(n.Child)
		return boolean(!v.truthy()), err
	case *expr.Call:
		args := make([]expr.Value, len(n.Args))
		for i, a := range n.Args {
			v, err := sub(a)
			if err != nil {
				return unbound, err
			}
			args[i] = v.x
		}
		if r.UDFs != nil {
			if out, _, err := r.UDFs.CallUDF(n.Name, args); err == nil {
				return computed(out), nil
			}
		}
	}
	return unbound, errEval
}

// aggregate groups by term identity (computed values by equality) and
// folds each group: COUNT counts bound cells (rows for *), the numeric
// aggregates see only numbers, and AVG/MIN/MAX of none is unbound.
func aggregate(in rel, q *sparql.Query) rel {
	out := rel{vars: slices.Clone(q.GroupBy)}
	keyCols := in.cols(q.GroupBy)
	var keys [][]val
	var members [][][]val
	for _, row := range in.rows {
		key := pick(row, keyCols)
		g := slices.IndexFunc(keys, func(k []val) bool { return slices.Equal(k, key) })
		if g < 0 {
			g, keys, members = len(keys), append(keys, key), append(members, nil)
		}
		members[g] = append(members[g], row)
	}
	if len(keys) == 0 && len(q.GroupBy) == 0 {
		keys, members = [][]val{nil}, [][][]val{nil} // no input, no GROUP BY: one empty group
	}
	for _, a := range q.Aggregates {
		out.vars = append(out.vars, a.As)
	}
	for g, key := range keys {
		row := slices.Clone(key)
		for _, a := range q.Aggregates {
			bound, sum := 0, 0.0
			var nums []float64
			for _, m := range members[g] {
				cell := unbound // COUNT(*) has no cell to look at
				if a.Var != "" {
					cell = m[in.col(a.Var)]
				}
				if a.Var == "" || cell != unbound {
					bound++
				}
				if cell.x.Kind == expr.KindFloat {
					nums, sum = append(nums, cell.x.Num), sum+cell.x.Num
				}
			}
			fold := map[string]val{"count": number(float64(bound)), "sum": number(sum)}
			if len(nums) > 0 {
				fold["avg"], fold["min"], fold["max"] = number(sum/float64(len(nums))), number(slices.Min(nums)), number(slices.Max(nums))
			}
			row = append(row, fold[a.Func])
		}
		out.rows = append(out.rows, row)
	}
	return out
}

// Result is the reference answer plus what the query leaves open.
type Result struct {
	Vars []string
	Rows [][]string // display form, in answer order
	// Group numbers the run of ORDER BY ties each row belongs to: one
	// run's rows may come back in any order (all rows, without ORDER BY).
	Group []int
	// Loose: OFFSET/LIMIT cut a run of ties, so which of its rows made
	// the answer is open and only their number can be checked.
	Loose bool
	Star  bool // SELECT *: the column order is the evaluator's choice
}

// Eval answers q: group pattern → aggregate → ORDER BY → project →
// DISTINCT (first occurrence kept) → OFFSET/LIMIT.
func (w *World) Eval(q *sparql.Query) (*Result, error) {
	r := &run{World: w}
	cur := r.group(q.Where)
	if r.err != nil {
		return nil, r.err
	}
	if len(q.Aggregates) > 0 {
		cur = aggregate(cur, q)
	}
	byKeys := func(a, b []val) int {
		for _, k := range q.OrderBy {
			if c := cur.col(k.Var); c >= 0 && order(a[c], b[c]) != 0 {
				if k.Desc {
					return order(b[c], a[c])
				}
				return order(a[c], b[c])
			}
		}
		return 0
	}
	sort.SliceStable(cur.rows, func(i, j int) bool { return byKeys(cur.rows[i], cur.rows[j]) < 0 })

	res := &Result{Vars: q.Select, Star: len(q.Select) == 0}
	if res.Star {
		res.Vars = cur.vars
	}
	cols := cur.cols(res.Vars)
	seen := map[string]bool{}
	run := 0
	for i, row := range cur.rows {
		if i > 0 && byKeys(cur.rows[i-1], row) != 0 {
			run++
		}
		cells := make([]string, len(cols))
		for j, v := range pick(row, cols) {
			if cells[j] = v.show; v == unbound {
				cells[j] = "null"
			}
		}
		if key := strings.Join(cells, "\x1f"); !q.Distinct || !seen[key] {
			seen[key] = true
			res.Rows, res.Group = append(res.Rows, cells), append(res.Group, run)
		}
	}
	n := len(res.Rows)
	lo, hi := min(max(q.Offset, 0), n), n
	if q.Limit >= 0 {
		hi = min(lo+q.Limit, n)
	}
	cut := func(i int) bool { return i > 0 && i < n && res.Group[i-1] == res.Group[i] }
	res.Loose = hi > lo && (cut(lo) || cut(hi))
	res.Rows, res.Group = res.Rows[lo:hi], res.Group[lo:hi]
	return res, nil
}

// Diff checks an engine answer against the reference's and returns ""
// when it is one of the answers the query admits.
func (want *Result) Diff(vars []string, rows [][]string) string {
	cols := make([]int, len(want.Vars)) // where the engine put each reference column
	for i, v := range want.Vars {
		cols[i] = slices.Index(vars, v)
	}
	if len(vars) != len(want.Vars) || slices.Contains(cols, -1) || !want.Star && !slices.IsSorted(cols) {
		return fmt.Sprintf("header: engine %v, reference %v", vars, want.Vars)
	}
	if len(rows) != len(want.Rows) {
		return fmt.Sprintf("row count: engine %d, reference %d", len(rows), len(want.Rows))
	}
	if want.Loose {
		return ""
	}
	got, ref := make([]string, len(rows)), make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(cols))
		for j, c := range cols {
			cells[j] = row[c]
		}
		got[i], ref[i] = strings.Join(cells, "\x1f"), strings.Join(want.Rows[i], "\x1f")
	}
	for lo, hi := 0, 0; lo < len(got); lo = hi {
		for hi = lo + 1; hi < len(got) && want.Group[hi] == want.Group[lo]; hi++ {
		}
		sort.Strings(got[lo:hi])
		sort.Strings(ref[lo:hi])
		if !slices.Equal(got[lo:hi], ref[lo:hi]) {
			return fmt.Sprintf("rows %d..%d (one run of ties, sorted): engine %q, reference %q", lo, hi-1, got[lo:hi], ref[lo:hi])
		}
	}
	return ""
}
