package expr

import (
	"errors"
	"fmt"
)

// Env supplies variable bindings during evaluation.
type Env interface {
	// Lookup returns the value bound to the named variable.
	Lookup(name string) (Value, bool)
}

// FuncResolver dispatches UDF calls. The returned cost is the virtual
// execution time in seconds the caller should charge and record in the
// per-rank profile.
//
// Arguments may still be KindID: Eval hands dictionary references over
// unresolved, together with the Resolver that concretizes them, so an
// implementation that recognises a call by its IDs never touches the
// terms. The implementation resolves before it runs the function — a
// UDF body only ever sees concrete values — and may do so in place:
// args is the caller's scratch frame and must not be retained. With a
// nil terms, IDs are passed to the function as they are.
type FuncResolver interface {
	CallLazy(name string, args []Value, terms Resolver) (result Value, cost float64, err error)
}

// Ctx carries everything evaluation needs.
type Ctx struct {
	Env   Env
	Funcs FuncResolver
	Terms Resolver
	// argbuf is a reusable argument-frame stack for Call nodes. A Ctx
	// lives for a whole operator (thousands of rows), so growing it
	// once amortizes the per-call slice that used to be allocated for
	// every UDF invocation. Callees may resolve the frame in place but
	// must not retain it; the registry copies what it memoizes.
	argbuf []Value
}

// Evaluation errors.
var (
	ErrUnboundVar   = errors.New("expr: unbound variable")
	ErrNoResolver   = errors.New("expr: UDF call without resolver")
	ErrIncomparable = errors.New("expr: incomparable values")
	ErrNotNumeric   = errors.New("expr: non-numeric operand")
	ErrDivByZero    = errors.New("expr: division by zero")
)

// Eval evaluates e under ctx.
func Eval(e Expr, ctx *Ctx) (Value, error) {
	switch n := e.(type) {
	case *Const:
		return n.Val, nil
	case *Var:
		// In scope but unbound (an unmatched OPTIONAL, UNDEF, a BIND
		// that erred) is as much an error as out of scope.
		v, ok := ctx.Env.Lookup(n.Name)
		if !ok || v.IsNull() {
			return Null, fmt.Errorf("%w: ?%s", ErrUnboundVar, n.Name)
		}
		return v, nil
	case *Cmp:
		l, err := Eval(n.L, ctx)
		if err != nil {
			return Null, err
		}
		r, err := Eval(n.R, ctx)
		if err != nil {
			return Null, err
		}
		if l.IsNull() || r.IsNull() {
			// SPARQL: comparisons over unbound values are errors, and
			// an erroring FILTER drops the row (OPTIONAL nulls).
			return Null, fmt.Errorf("%w: null operand", ErrIncomparable)
		}
		c, ok := Compare(l, r, ctx.Terms)
		if !ok {
			// Identity (in)equality still works across kinds.
			if n.Op == EQ {
				return Bool(false), nil
			}
			if n.Op == NE {
				return Bool(true), nil
			}
			return Null, fmt.Errorf("%w: %s vs %s", ErrIncomparable, l, r)
		}
		switch n.Op {
		case EQ:
			return Bool(c == 0), nil
		case NE:
			return Bool(c != 0), nil
		case LT:
			return Bool(c < 0), nil
		case LE:
			return Bool(c <= 0), nil
		case GT:
			return Bool(c > 0), nil
		default:
			return Bool(c >= 0), nil
		}
	case *Arith:
		l, err := evalNumeric(n.L, ctx)
		if err != nil {
			return Null, err
		}
		r, err := evalNumeric(n.R, ctx)
		if err != nil {
			return Null, err
		}
		switch n.Op {
		case Add:
			return Float(l + r), nil
		case Sub:
			return Float(l - r), nil
		case Mul:
			return Float(l * r), nil
		default:
			if r == 0 {
				return Null, ErrDivByZero
			}
			return Float(l / r), nil
		}
	case *And:
		for _, c := range n.Children {
			v, err := Eval(c, ctx)
			if err != nil {
				return Null, err
			}
			if !v.Truthy() {
				return Bool(false), nil
			}
		}
		return Bool(true), nil
	case *Or:
		for _, c := range n.Children {
			v, err := Eval(c, ctx)
			if err != nil {
				return Null, err
			}
			if v.Truthy() {
				return Bool(true), nil
			}
		}
		return Bool(false), nil
	case *Not:
		v, err := Eval(n.Child, ctx)
		if err != nil {
			return Null, err
		}
		return Bool(!v.Truthy()), nil
	case *Call:
		if ctx.Funcs == nil {
			return Null, fmt.Errorf("%w: %s", ErrNoResolver, n.Name)
		}
		// Argument frames are pushed on the context's reusable stack
		// (nested calls evaluate their arguments above the caller's
		// frame), so steady-state evaluation allocates nothing here.
		base := len(ctx.argbuf)
		for _, a := range n.Args {
			v, err := Eval(a, ctx)
			if err != nil {
				ctx.argbuf = ctx.argbuf[:base]
				return Null, err
			}
			// IDs travel unresolved; the resolver concretizes them
			// before the UDF body runs (see FuncResolver).
			ctx.argbuf = append(ctx.argbuf, v)
		}
		args := ctx.argbuf[base:len(ctx.argbuf):len(ctx.argbuf)]
		out, _, err := ctx.Funcs.CallLazy(n.Name, args, ctx.Terms)
		ctx.argbuf = ctx.argbuf[:base]
		if err != nil {
			return Null, fmt.Errorf("expr: UDF %s: %w", n.Name, err)
		}
		return out, nil
	default:
		return Null, fmt.Errorf("expr: unknown node %T", e)
	}
}

func evalNumeric(e Expr, ctx *Ctx) (float64, error) {
	v, err := Eval(e, ctx)
	if err != nil {
		return 0, err
	}
	v = resolve(v, ctx.Terms)
	if v.Kind != KindFloat {
		return 0, fmt.Errorf("%w: %s", ErrNotNumeric, v)
	}
	return v.Num, nil
}

// EvalBool evaluates e and coerces the result to its effective boolean
// value.
func EvalBool(e Expr, ctx *Ctx) (bool, error) {
	v, err := Eval(e, ctx)
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}
