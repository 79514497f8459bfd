package script

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"ids/internal/expr"
)

// Interpreter errors.
var (
	ErrUndefined  = errors.New("script: undefined")
	ErrArity      = errors.New("script: wrong argument count")
	ErrType       = errors.New("script: type error")
	ErrStepBudget = errors.New("script: step budget exceeded")
	ErrDepth      = errors.New("script: recursion too deep")
)

const (
	maxSteps = 1_000_000
	maxDepth = 128
	// bytesPerStep is how many bytes of a concatenated string cost one
	// step, so the step budget bounds the memory a call can build as
	// well as its time.
	bytesPerStep = 16
)

type frame struct {
	vars map[string]expr.Value
}

type interp struct {
	mod   *Module
	steps int
	depth int
}

// returnSignal carries a return value up the statement walk.
type returnSignal struct{ v expr.Value }

func (returnSignal) Error() string { return "return" }

func (in *interp) invoke(fd *FuncDecl, args []expr.Value) (expr.Value, error) {
	if len(args) != len(fd.Params) {
		return expr.Null, fmt.Errorf("%w: %s takes %d, got %d", ErrArity, fd.Name, len(fd.Params), len(args))
	}
	if in.depth++; in.depth > maxDepth {
		return expr.Null, ErrDepth
	}
	defer func() { in.depth-- }()
	f := &frame{vars: make(map[string]expr.Value, len(args))}
	for i, p := range fd.Params {
		f.vars[p] = args[i]
	}
	err := in.execBlock(fd.body, f)
	var rs returnSignal
	if errors.As(err, &rs) {
		return rs.v, nil
	}
	if err != nil {
		return expr.Null, err
	}
	return expr.Null, nil // fell off the end
}

func (in *interp) tick() error {
	in.steps++
	if in.steps > maxSteps {
		return ErrStepBudget
	}
	return nil
}

func (in *interp) execBlock(stmts []node, f *frame) error {
	for _, s := range stmts {
		if err := in.execStmt(s, f); err != nil {
			return err
		}
	}
	return nil
}

func (in *interp) execStmt(s node, f *frame) error {
	if err := in.tick(); err != nil {
		return err
	}
	switch n := s.(type) {
	case *letStmt:
		v, err := in.eval(n.expr, f)
		if err != nil {
			return err
		}
		f.vars[n.name] = v
		return nil
	case *assignStmt:
		if _, ok := f.vars[n.name]; !ok {
			return fmt.Errorf("%w variable %s (use let)", ErrUndefined, n.name)
		}
		v, err := in.eval(n.expr, f)
		if err != nil {
			return err
		}
		f.vars[n.name] = v
		return nil
	case *ifStmt:
		c, err := in.eval(n.cond, f)
		if err != nil {
			return err
		}
		if c.Truthy() {
			return in.execBlock(n.then, f)
		}
		if n.els != nil {
			return in.execBlock(n.els, f)
		}
		return nil
	case *whileStmt:
		for {
			c, err := in.eval(n.cond, f)
			if err != nil {
				return err
			}
			if !c.Truthy() {
				return nil
			}
			if err := in.execBlock(n.body, f); err != nil {
				return err
			}
			if err := in.tick(); err != nil {
				return err
			}
		}
	case *returnStmt:
		if n.expr == nil {
			return returnSignal{v: expr.Null}
		}
		v, err := in.eval(n.expr, f)
		if err != nil {
			return err
		}
		return returnSignal{v: v}
	case *exprStmt:
		_, err := in.eval(n.expr, f)
		return err
	default:
		return fmt.Errorf("script: unknown statement %T", s)
	}
}

func (in *interp) eval(e node, f *frame) (expr.Value, error) {
	if err := in.tick(); err != nil {
		return expr.Null, err
	}
	switch n := e.(type) {
	case *numLit:
		return expr.Float(n.v), nil
	case *strLit:
		return expr.String(n.v), nil
	case *boolLit:
		return expr.Bool(n.v), nil
	case *ident:
		v, ok := f.vars[n.name]
		if !ok {
			return expr.Null, fmt.Errorf("%w variable %s", ErrUndefined, n.name)
		}
		return v, nil
	case *unary:
		x, err := in.eval(n.x, f)
		if err != nil {
			return expr.Null, err
		}
		if n.op == "!" {
			return expr.Bool(!x.Truthy()), nil
		}
		if x.Kind != expr.KindFloat {
			return expr.Null, fmt.Errorf("%w: unary - on %s", ErrType, x)
		}
		return expr.Float(-x.Num), nil
	case *binary:
		return in.evalBinary(n, f)
	case *call:
		args := make([]expr.Value, len(n.args))
		for i, a := range n.args {
			v, err := in.eval(a, f)
			if err != nil {
				return expr.Null, err
			}
			args[i] = v
		}
		if fd, ok := in.mod.Funcs[n.name]; ok {
			return in.invoke(fd, args)
		}
		if b, ok := builtins[n.name]; ok {
			return b(args)
		}
		return expr.Null, fmt.Errorf("%w function %s", ErrUndefined, n.name)
	default:
		return expr.Null, fmt.Errorf("script: unknown expression %T", e)
	}
}

func (in *interp) evalBinary(n *binary, f *frame) (expr.Value, error) {
	// Short-circuit logicals.
	if n.op == "&&" || n.op == "||" {
		l, err := in.eval(n.l, f)
		if err != nil {
			return expr.Null, err
		}
		if n.op == "&&" && !l.Truthy() {
			return expr.Bool(false), nil
		}
		if n.op == "||" && l.Truthy() {
			return expr.Bool(true), nil
		}
		r, err := in.eval(n.r, f)
		if err != nil {
			return expr.Null, err
		}
		return expr.Bool(r.Truthy()), nil
	}
	l, err := in.eval(n.l, f)
	if err != nil {
		return expr.Null, err
	}
	r, err := in.eval(n.r, f)
	if err != nil {
		return expr.Null, err
	}
	switch n.op {
	case "+":
		if l.Kind == expr.KindString && r.Kind == expr.KindString {
			in.steps += (len(l.Str) + len(r.Str)) / bytesPerStep
			if err := in.tick(); err != nil {
				return expr.Null, err
			}
			return expr.String(l.Str + r.Str), nil
		}
		return numOp(l, r, func(a, b float64) float64 { return a + b })
	case "-":
		return numOp(l, r, func(a, b float64) float64 { return a - b })
	case "*":
		return numOp(l, r, func(a, b float64) float64 { return a * b })
	case "/":
		if r.Kind == expr.KindFloat && r.Num == 0 {
			return expr.Null, fmt.Errorf("%w: division by zero", ErrType)
		}
		return numOp(l, r, func(a, b float64) float64 { return a / b })
	case "%":
		if r.Kind == expr.KindFloat && r.Num == 0 {
			return expr.Null, fmt.Errorf("%w: modulo by zero", ErrType)
		}
		return numOp(l, r, math.Mod)
	case "==", "!=", "<", "<=", ">", ">=":
		c, ok := expr.Compare(l, r, nil)
		if !ok {
			if n.op == "==" {
				return expr.Bool(false), nil
			}
			if n.op == "!=" {
				return expr.Bool(true), nil
			}
			return expr.Null, fmt.Errorf("%w: cannot compare %s and %s", ErrType, l, r)
		}
		switch n.op {
		case "==":
			return expr.Bool(c == 0), nil
		case "!=":
			return expr.Bool(c != 0), nil
		case "<":
			return expr.Bool(c < 0), nil
		case "<=":
			return expr.Bool(c <= 0), nil
		case ">":
			return expr.Bool(c > 0), nil
		default:
			return expr.Bool(c >= 0), nil
		}
	default:
		return expr.Null, fmt.Errorf("script: unknown operator %q", n.op)
	}
}

func numOp(l, r expr.Value, fn func(a, b float64) float64) (expr.Value, error) {
	if l.Kind != expr.KindFloat || r.Kind != expr.KindFloat {
		return expr.Null, fmt.Errorf("%w: numeric op on %s and %s", ErrType, l, r)
	}
	return expr.Float(fn(l.Num, r.Num)), nil
}

// builtins are the standard library available to modules.
var builtins = map[string]func(args []expr.Value) (expr.Value, error){
	"abs":   numBuiltin1("abs", math.Abs),
	"sqrt":  numBuiltin1("sqrt", math.Sqrt),
	"log":   numBuiltin1("log", math.Log),
	"log10": numBuiltin1("log10", math.Log10),
	"exp":   numBuiltin1("exp", math.Exp),
	"floor": numBuiltin1("floor", math.Floor),
	"ceil":  numBuiltin1("ceil", math.Ceil),
	"pow": func(args []expr.Value) (expr.Value, error) {
		if len(args) != 2 || args[0].Kind != expr.KindFloat || args[1].Kind != expr.KindFloat {
			return expr.Null, fmt.Errorf("%w: pow(num, num)", ErrType)
		}
		return expr.Float(math.Pow(args[0].Num, args[1].Num)), nil
	},
	"min": numBuiltin2("min", math.Min),
	"max": numBuiltin2("max", math.Max),
	"len": func(args []expr.Value) (expr.Value, error) {
		if len(args) != 1 || args[0].Kind != expr.KindString {
			return expr.Null, fmt.Errorf("%w: len(string)", ErrType)
		}
		return expr.Float(float64(len(args[0].Str))), nil
	},
	"substr": func(args []expr.Value) (expr.Value, error) {
		if len(args) != 3 || args[0].Kind != expr.KindString ||
			args[1].Kind != expr.KindFloat || args[2].Kind != expr.KindFloat {
			return expr.Null, fmt.Errorf("%w: substr(string, start, end)", ErrType)
		}
		s := args[0].Str
		b := max(0, min(len(s), int(args[2].Num)))
		a := max(0, min(b, int(args[1].Num)))
		return expr.String(s[a:b]), nil
	},
	"upper": func(args []expr.Value) (expr.Value, error) {
		if len(args) != 1 || args[0].Kind != expr.KindString {
			return expr.Null, fmt.Errorf("%w: upper(string)", ErrType)
		}
		return expr.String(strings.ToUpper(args[0].Str)), nil
	},
	"lower": func(args []expr.Value) (expr.Value, error) {
		if len(args) != 1 || args[0].Kind != expr.KindString {
			return expr.Null, fmt.Errorf("%w: lower(string)", ErrType)
		}
		return expr.String(strings.ToLower(args[0].Str)), nil
	},
	"contains": func(args []expr.Value) (expr.Value, error) {
		if len(args) != 2 || args[0].Kind != expr.KindString || args[1].Kind != expr.KindString {
			return expr.Null, fmt.Errorf("%w: contains(string, string)", ErrType)
		}
		return expr.Bool(strings.Contains(args[0].Str, args[1].Str)), nil
	},
}

func numBuiltin1(name string, fn func(float64) float64) func(args []expr.Value) (expr.Value, error) {
	return func(args []expr.Value) (expr.Value, error) {
		if len(args) != 1 || args[0].Kind != expr.KindFloat {
			return expr.Null, fmt.Errorf("%w: %s(num)", ErrType, name)
		}
		return expr.Float(fn(args[0].Num)), nil
	}
}

func numBuiltin2(name string, fn func(a, b float64) float64) func(args []expr.Value) (expr.Value, error) {
	return func(args []expr.Value) (expr.Value, error) {
		if len(args) != 2 || args[0].Kind != expr.KindFloat || args[1].Kind != expr.KindFloat {
			return expr.Null, fmt.Errorf("%w: %s(num, num)", ErrType, name)
		}
		return expr.Float(fn(args[0].Num, args[1].Num)), nil
	}
}
