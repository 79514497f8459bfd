package plan

import (
	"fmt"
	"sort"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/sparql"
)

// Query fingerprinting (DESIGN.md §6): a stable uint64 identifying a
// query's *shape*, so workload-level statistics can aggregate the
// thousands of literal-variations an iterative exploration session
// re-issues into one line. Two queries share a fingerprint exactly when
// they normalize identically:
//
//   - literal values are masked (kind and datatype survive, the lexical
//     form does not), so `"a1"` and `"a2"` are one shape while `"1"` and
//     `"1"^^xsd:int` are two;
//   - inline SIMILAR vectors are masked down to their dimensionality,
//     and K buckets to the next power of two, so a K-sweep stays one
//     shape; LIMIT/OFFSET bucket the same way (pagination cursors);
//   - conjunct order is canonicalized — triple patterns, FILTERs,
//     SIMILAR clauses, UNION branches, and &&/|| chains hash as sorted
//     sub-hash sets — so writing the same BGP in a different order
//     cannot split a shape;
//   - everything structural survives: IRIs, predicates, variable names,
//     operators, UDF names, projection, DISTINCT, ORDER BY, aggregates.
//
// The hash is FNV-1a 64 over a tagged pre-order walk; sorting happens
// on sub-hashes, never on rendered strings, so no allocation-heavy
// canonical text form is ever built.

const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// fpw is an FNV-1a 64 writer with tagged field helpers. Every field is
// terminated/tagged so adjacent fields cannot collide by concatenation.
type fpw struct{ h uint64 }

func newFPW() fpw { return fpw{h: fnv64Offset} }

func (f *fpw) byte(b byte) {
	f.h ^= uint64(b)
	f.h *= fnv64Prime
}

func (f *fpw) str(s string) {
	for i := 0; i < len(s); i++ {
		f.byte(s[i])
	}
	f.byte(0xfe) // field terminator: "ab"+"c" != "a"+"bc"
}

func (f *fpw) u64(v uint64) {
	for i := 0; i < 64; i += 8 {
		f.byte(byte(v >> i))
	}
}

func (f *fpw) num(v int) { f.u64(uint64(int64(v))) }

// unordered folds a set of sub-hashes order-insensitively but
// collision-resistantly: sort, then chain through FNV with a length
// prefix (plain XOR would cancel duplicated conjuncts).
func (f *fpw) unordered(hs []uint64) {
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	f.num(len(hs))
	for _, h := range hs {
		f.u64(h)
	}
}

// bucketPow2 rounds n up to the next power of two (0 for n <= 0), the
// magnitude bucket used for SIMILAR K, LIMIT, and OFFSET.
func bucketPow2(n int) int {
	if n <= 0 {
		return 0
	}
	b := 1
	for b < n {
		b <<= 1
	}
	return b
}

// Fingerprint computes the workload fingerprint of a parsed query.
// It is deterministic across processes and runs: the inputs are the
// parsed structure only, never maps, pointers, or statistics.
func Fingerprint(q *sparql.Query) uint64 {
	f := newFPW()
	f.str("q")
	f.u64(fpGroup(q.Where))
	f.str("sel")
	for _, v := range q.Select {
		f.str(v)
	}
	if q.Distinct {
		f.str("distinct")
	}
	for _, k := range q.OrderBy {
		f.str("order")
		f.str(k.Var)
		if k.Desc {
			f.str("desc")
		}
	}
	f.str("lim")
	if q.Limit < 0 {
		f.num(-1) // absent: distinct from every bucket
	} else {
		f.num(bucketPow2(q.Limit))
	}
	f.num(bucketPow2(q.Offset))
	for _, a := range q.Aggregates {
		f.str("agg")
		f.str(a.Func)
		f.str(a.Var)
		f.str(a.As)
	}
	for _, g := range q.GroupBy {
		f.str("group")
		f.str(g)
	}
	return f.h
}

// FingerprintString parses and fingerprints a query string, returning
// 0 for unparseable input (callers on error paths want a best-effort
// shape, not a second error).
func FingerprintString(qs string) uint64 {
	q, err := sparql.Parse(qs)
	if err != nil {
		return 0
	}
	return Fingerprint(q)
}

// FormatFingerprint renders a fingerprint in its canonical fixed-width
// hex form (the `fp` label on metrics and the JSON field value).
func FormatFingerprint(fp uint64) string {
	if fp == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", fp)
}

// fpGroup hashes one WHERE group (the top level, a UNION branch, or an
// OPTIONAL body) as an unordered set of element hashes.
func fpGroup(elems []sparql.Element) uint64 {
	hs := make([]uint64, 0, len(elems))
	for _, el := range elems {
		hs = append(hs, fpElement(el))
	}
	f := newFPW()
	f.str("grp")
	f.unordered(hs)
	return f.h
}

func fpElement(el sparql.Element) uint64 {
	f := newFPW()
	switch n := el.(type) {
	case sparql.TriplePattern:
		f.str("tp")
		fpPos(&f, n.S)
		fpPos(&f, n.P)
		fpPos(&f, n.O)
	case sparql.Filter:
		f.str("filter")
		f.u64(fpExpr(n.Expr))
	case sparql.UnionPattern:
		f.str("union")
		hs := make([]uint64, 0, len(n.Branches))
		for _, b := range n.Branches {
			hs = append(hs, fpGroup(b))
		}
		f.unordered(hs)
	case sparql.OptionalPattern:
		f.str("opt")
		f.u64(fpGroup(n.Body))
	case sparql.Bind:
		f.str("bind")
		f.str(n.Var)
		f.u64(fpExpr(n.Expr))
	case sparql.ValuesPattern:
		f.str("values")
		for _, v := range n.Vars {
			f.str(v)
		}
		// Data rows hash as an unordered set with literal cells masked
		// (like pattern literals) and the row count bucketed: swapping
		// constants in an inline data block keeps the shape, growing it
		// by an order of magnitude does not.
		f.num(bucketPow2(len(n.Rows)))
		hs := make([]uint64, 0, len(n.Rows))
		for _, row := range n.Rows {
			rf := newFPW()
			rf.str("vrow")
			for _, c := range row {
				if c.Undef {
					rf.str("undef")
					continue
				}
				fpTerm(&rf, c.Term)
			}
			hs = append(hs, rf.h)
		}
		f.unordered(hs)
	case sparql.SimilarPattern:
		f.str("similar")
		f.str(n.Var)
		f.str(n.Store)
		switch {
		case n.Vec != nil:
			// Inline vectors mask to dimensionality: the anchor point
			// changes every session iteration, the embedding space does
			// not.
			f.str("vec")
			f.num(len(n.Vec))
		case n.KeyIsIRI:
			// IRI anchors name an entity — structural, like pattern IRIs.
			f.str("iri")
			f.str(n.Key)
		default:
			// String-literal anchors mask like any literal.
			f.str("lit")
		}
		f.num(bucketPow2(n.K))
	default:
		f.str("elem?")
	}
	return f.h
}

// fpPos hashes one triple-pattern position: variables by name, IRIs and
// blanks by value, literals masked to kind+datatype.
func fpPos(f *fpw, tv sparql.TermOrVar) {
	if tv.IsVar {
		f.str("?")
		f.str(tv.Var)
		return
	}
	fpTerm(f, tv.Term)
}

func fpTerm(f *fpw, t dict.Term) {
	switch t.Kind {
	case dict.Literal:
		f.str("lit")
		f.str(t.Datatype)
	default:
		f.num(int(t.Kind))
		f.str(t.Value)
	}
}

// fpExpr hashes a FILTER expression with constants masked to their
// value kind and commutative chains (&&, ||) canonicalized.
func fpExpr(e expr.Expr) uint64 {
	f := newFPW()
	switch n := e.(type) {
	case *expr.Var:
		f.str("v")
		f.str(n.Name)
	case *expr.Const:
		f.str("c")
		f.num(int(n.Val.Kind))
	case *expr.Cmp:
		f.str("cmp")
		f.num(int(n.Op))
		f.u64(fpExpr(n.L))
		f.u64(fpExpr(n.R))
	case *expr.Arith:
		f.str("arith")
		f.num(int(n.Op))
		f.u64(fpExpr(n.L))
		f.u64(fpExpr(n.R))
	case *expr.And:
		f.str("and")
		f.unordered(fpExprs(n.Children))
	case *expr.Or:
		f.str("or")
		f.unordered(fpExprs(n.Children))
	case *expr.Not:
		f.str("not")
		f.u64(fpExpr(n.Child))
	case *expr.Call:
		f.str("call")
		f.str(n.Name)
		for _, a := range n.Args {
			f.u64(fpExpr(a))
		}
	default:
		f.str("expr?")
		f.str(e.String())
	}
	return f.h
}

func fpExprs(es []expr.Expr) []uint64 {
	hs := make([]uint64, 0, len(es))
	for _, e := range es {
		hs = append(hs, fpExpr(e))
	}
	return hs
}
