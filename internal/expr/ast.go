package expr

import (
	"fmt"
	"slices"
	"strings"
)

// Expr is one node of an expression tree.
type Expr interface {
	// String renders the expression in query syntax.
	String() string
}

// Var references a solution variable by name (without the '?').
type Var struct{ Name string }

func (v *Var) String() string { return "?" + v.Name }

// Const is a literal constant.
type Const struct{ Val Value }

func (c *Const) String() string { return c.Val.String() }

// CmpOp is a comparison operator.
type CmpOp uint8

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (o CmpOp) String() string {
	switch o {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	default:
		return ">="
	}
}

// Cmp compares two sub-expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// ArithOp is an arithmetic operator.
type ArithOp uint8

// Arithmetic operators.
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (o ArithOp) String() string {
	switch o {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	default:
		return "/"
	}
}

// Arith combines two numeric sub-expressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L, a.Op, a.R)
}

// And is a conjunction of one or more children (the reorderable
// FILTER chain).
type And struct{ Children []Expr }

func (a *And) String() string { return "(" + join(a.Children, " && ") + ")" }

// Or is a disjunction.
type Or struct{ Children []Expr }

func (o *Or) String() string { return "(" + join(o.Children, " || ") + ")" }

// Not negates a sub-expression.
type Not struct{ Child Expr }

func (n *Not) String() string { return "!(" + n.Child.String() + ")" }

// Call invokes a registered UDF.
type Call struct {
	Name string
	Args []Expr
}

func (c *Call) String() string { return c.Name + "(" + join(c.Args, ", ") + ")" }

// join renders es separated by sep.
func join(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, sep)
}

// Vars returns the distinct variable names referenced by e, in first-
// appearance order.
func Vars(e Expr) []string {
	var out []string
	walk(e, func(e Expr) {
		if v, ok := e.(*Var); ok && !slices.Contains(out, v.Name) {
			out = append(out, v.Name)
		}
	})
	return out
}

// CallNames returns the distinct UDF names invoked anywhere in e.
func CallNames(e Expr) []string {
	var out []string
	walk(e, func(e Expr) {
		if c, ok := e.(*Call); ok && !slices.Contains(out, c.Name) {
			out = append(out, c.Name)
		}
	})
	return out
}

// walk calls fn on e and every node below it, parents first, children
// left to right.
func walk(e Expr, fn func(Expr)) {
	fn(e)
	var kids []Expr
	switch n := e.(type) {
	case *Cmp:
		kids = []Expr{n.L, n.R}
	case *Arith:
		kids = []Expr{n.L, n.R}
	case *And:
		kids = n.Children
	case *Or:
		kids = n.Children
	case *Not:
		kids = []Expr{n.Child}
	case *Call:
		kids = n.Args
	}
	for _, k := range kids {
		walk(k, fn)
	}
}

// Conjuncts flattens nested And nodes into a conjunct list; a non-And
// expression is a single conjunct.
func Conjuncts(e Expr) []Expr {
	if a, ok := e.(*And); ok {
		var out []Expr
		for _, c := range a.Children {
			out = append(out, Conjuncts(c)...)
		}
		return out
	}
	return []Expr{e}
}
