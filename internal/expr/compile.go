package expr

import (
	"errors"
	"fmt"
	"slices"
)

// FuncResolver binds UDF names for compiled programs, once per call
// site rather than once per row.
type FuncResolver interface {
	Bind(name string) Callee
}

// Callee is one UDF bound by name. Call returns the result and the
// virtual seconds to charge. Arguments may still be KindID: the callee
// resolves them through terms (nil: pass IDs as they are) before the
// body runs, possibly in place — args is scratch it must not retain.
type Callee interface {
	Call(args []Value, terms Resolver) (result Value, cost float64, err error)
}

// Result is one call's answer: its value and the cost to charge.
type Result struct {
	V    Value
	Cost float64
}

// CallCost records one call an evaluation made: its site's index in
// Prog.Sites, the frame's Row and the cost the call returned.
type CallCost struct {
	Site, Row int32
	Cost      float64
}

// Evaluation errors.
var (
	ErrUnboundVar   = errors.New("expr: unbound variable")
	ErrNoResolver   = errors.New("expr: UDF call without resolver")
	ErrIncomparable = errors.New("expr: incomparable values")
	ErrNotNumeric   = errors.New("expr: non-numeric operand")
	ErrDivByZero    = errors.New("expr: division by zero")
)

// Frame is everything an evaluation writes; one serves a whole operator
// on one goroutine, while the programs it evaluates are shared.
type Frame struct {
	Vals  []Value // the row: slot i holds the variable vars[i] of Compile
	Terms Resolver
	// Hits[i], when not nil, answers site i of the program being
	// evaluated ahead of evaluation: a Hits[i][Pos] with a non-null value
	// is the call's answer for the row, recorded without running it.
	Hits  [][]Result
	Pos   int        // the row's index into Hits
	Row   int32      // tags the Calls records
	Calls []CallCost // one record per call evaluated, in order
	args  []Value    // argument frames; nested calls push above the caller's
	outs  []Value    // the nodes' result slots (Prog.nOut of them)
	err   error      // why the last step returned nil
}

func (f *Frame) fail(err error) *Value {
	f.err = err
	return nil
}

// step evaluates one node to a pointer at its value (a constant, a cell
// of Vals, a call's answer or the node's result slot in the frame), or
// to nil with f.err set: copying values up the tree costs more than the
// work.
type step func(f *Frame) *Value

// Prog is an expression compiled for a fixed variable layout: variables
// are slots and each call holds the callee its name was bound to.
// Evaluation writes only the frame, so goroutines share a program.
type Prog struct {
	eval  step
	Sites []*CallSite
	Slots []int // the distinct slots the program reads
	nOut  int   // result slots the frame provides
	// Room for the usual few sites and slots, so a conjunct's program
	// does not allocate them apart.
	sites [2]*CallSite
	slots [4]int
}

// CallSite is one UDF call in a program. Leaf reports that every
// argument is a variable or a constant, so the call can be answered
// ahead of evaluation (Frame.Hits).
type CallSite struct {
	Name   string
	Callee Callee // nil when compiled without a FuncResolver
	Leaf   bool
	idx    int32
	args   []step
	out    int // result slot
}

// Compile compiles e for rows laid out as vars; a variable not in vars
// is unbound on every row.
func Compile(e Expr, vars []string, funcs FuncResolver) *Prog {
	p := &Prog{}
	p.Sites, p.Slots = p.sites[:0], p.slots[:0]
	p.eval = p.compile(e, vars, funcs)
	return p
}

// Eval evaluates the program on the row in f.
func (p *Prog) Eval(f *Frame) (Value, error) {
	if len(f.outs) < p.nOut {
		f.outs = make([]Value, p.nOut)
	}
	if v := p.eval(f); v != nil {
		return *v, nil
	}
	return Null, f.err
}

// slot numbers a node's result slot in the frame.
func (p *Prog) slot() int {
	p.nOut++
	return p.nOut - 1
}

func (p *Prog) compile(e Expr, vars []string, funcs FuncResolver) step {
	sub := func(e Expr) step { return p.compile(e, vars, funcs) }
	switch n := e.(type) {
	case *Const:
		return func(*Frame) *Value { return &n.Val } // read-only: the tree is shared
	case *Var:
		slot := slices.Index(vars, n.Name)
		if slot >= 0 && !slices.Contains(p.Slots, slot) {
			p.Slots = append(p.Slots, slot)
		}
		return func(f *Frame) *Value {
			// In scope but unbound (an unmatched OPTIONAL, UNDEF, a BIND
			// that erred) is as much an error as out of scope.
			if slot < 0 || f.Vals[slot].IsNull() {
				return f.fail(ErrUnboundVar)
			}
			return &f.Vals[slot]
		}
	case *Cmp:
		l, r, out := sub(n.L), sub(n.R), p.slot()
		return func(f *Frame) *Value {
			lv := l(f)
			if lv == nil {
				return nil
			}
			rv := r(f)
			if rv == nil {
				return nil
			}
			b, err := compare(n.Op, lv, rv, f.Terms)
			if err != nil {
				return f.fail(err)
			}
			f.outs[out] = Bool(b)
			return &f.outs[out]
		}
	case *Arith:
		l, r, out := sub(n.L), sub(n.R), p.slot()
		return func(f *Frame) *Value {
			x, err := numeric(l, f)
			if err != nil {
				return f.fail(err)
			}
			y, err := numeric(r, f)
			switch {
			case err != nil:
				return f.fail(err)
			case n.Op == Add:
				f.outs[out] = Float(x + y)
			case n.Op == Sub:
				f.outs[out] = Float(x - y)
			case n.Op == Mul:
				f.outs[out] = Float(x * y)
			case y == 0:
				return f.fail(ErrDivByZero)
			default:
				f.outs[out] = Float(x / y)
			}
			return &f.outs[out]
		}
	case *And:
		return connective(sub, n.Children, false, p.slot())
	case *Or:
		return connective(sub, n.Children, true, p.slot())
	case *Not:
		c, out := sub(n.Child), p.slot()
		return func(f *Frame) *Value {
			if v := c(f); v != nil {
				f.outs[out] = Bool(!v.Truthy())
				return &f.outs[out]
			}
			return nil
		}
	case *Call:
		s := &CallSite{Name: n.Name, Leaf: true, idx: int32(len(p.Sites)), out: p.slot()}
		p.Sites = append(p.Sites, s)
		if funcs != nil {
			s.Callee = funcs.Bind(n.Name)
		}
		for _, a := range n.Args {
			switch a.(type) {
			case *Var, *Const:
			default:
				s.Leaf = false
			}
			s.args = append(s.args, sub(a))
		}
		return s.eval
	}
	err := fmt.Errorf("expr: unknown node %T", e)
	return func(f *Frame) *Value { return f.fail(err) }
}

// connective compiles && (or false) and || (or true): it stops at the
// first child whose truth is or; an erring child errs the whole.
func connective(sub func(Expr) step, children []Expr, or bool, out int) step {
	kids := make([]step, len(children))
	for i, c := range children {
		kids[i] = sub(c)
	}
	return func(f *Frame) *Value {
		for _, k := range kids {
			v := k(f)
			if v == nil {
				return nil
			}
			if v.Truthy() == or {
				f.outs[out] = Bool(or)
				return &f.outs[out]
			}
		}
		f.outs[out] = Bool(!or)
		return &f.outs[out]
	}
}

func compare(op CmpOp, l, r *Value, terms Resolver) (bool, error) {
	if l.IsNull() || r.IsNull() {
		// SPARQL: comparisons over unbound values are errors, and an
		// erroring FILTER drops the row (OPTIONAL nulls).
		return false, ErrIncomparable
	}
	c, ok := Compare(*l, *r, terms)
	switch {
	case !ok && (op == EQ || op == NE):
		return op == NE, nil // identity (in)equality works across kinds
	case !ok:
		return false, ErrIncomparable
	}
	return [...]bool{EQ: c == 0, NE: c != 0, LT: c < 0, LE: c <= 0, GT: c > 0, GE: c >= 0}[op], nil
}

func numeric(e step, f *Frame) (float64, error) {
	v := e(f)
	if v == nil {
		return 0, f.err
	}
	if r := resolve(*v, f.Terms); r.Kind == KindFloat {
		return r.Num, nil
	}
	return 0, ErrNotNumeric
}

// Args evaluates the argument frame of a Leaf site for the row in f.
// The frame is f's scratch, valid until f evaluates again.
func (s *CallSite) Args(f *Frame) ([]Value, error) {
	f.args = f.args[:0]
	if !s.pushArgs(f) {
		return nil, f.err
	}
	return f.args, nil
}

// pushArgs pushes the arguments on f's stack, above any frame a caller
// still holds there; IDs travel unresolved (see Callee).
func (s *CallSite) pushArgs(f *Frame) bool {
	base := len(f.args)
	for _, a := range s.args {
		v := a(f)
		if v == nil {
			f.args = f.args[:base]
			return false
		}
		f.args = append(f.args, *v)
	}
	return true
}

func (s *CallSite) eval(f *Frame) *Value {
	if int(s.idx) < len(f.Hits) && f.Hits[s.idx] != nil && !f.Hits[s.idx][f.Pos].V.IsNull() {
		r := &f.Hits[s.idx][f.Pos]
		f.Calls = append(f.Calls, CallCost{s.idx, f.Row, r.Cost})
		return &r.V
	}
	if s.Callee == nil {
		return f.fail(ErrNoResolver)
	}
	base := len(f.args)
	if !s.pushArgs(f) {
		return nil
	}
	v, cost, err := s.Callee.Call(f.args[base:len(f.args):len(f.args)], f.Terms)
	f.args = f.args[:base]
	f.Calls = append(f.Calls, CallCost{s.idx, f.Row, cost})
	if err != nil {
		return f.fail(err)
	}
	f.outs[s.out] = v
	return &f.outs[s.out]
}
