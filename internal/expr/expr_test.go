package expr

import (
	"errors"
	"testing"
	"testing/quick"

	"ids/internal/dict"
)

func TestValueTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false},
		{Bool(true), true},
		{Bool(false), false},
		{Float(0), false},
		{Float(-2), true},
		{String(""), false},
		{String("x"), true},
		{IDVal(0), false},
		{IDVal(3), true},
	}
	for _, c := range cases {
		if got := c.v.Truthy(); got != c.want {
			t.Errorf("Truthy(%s) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestValueString(t *testing.T) {
	if Null.String() != "null" || Float(1.5).String() != "1.5" ||
		String("a").String() != `"a"` || Bool(true).String() != "true" ||
		IDVal(7).String() != "id:7" {
		t.Fatal("Value.String mismatch")
	}
}

func TestCompareSameKinds(t *testing.T) {
	if c, ok := Compare(Float(1), Float(2), nil); !ok || c != -1 {
		t.Fatalf("float compare: %d %v", c, ok)
	}
	if c, ok := Compare(String("b"), String("a"), nil); !ok || c != 1 {
		t.Fatalf("string compare: %d %v", c, ok)
	}
	if c, ok := Compare(Bool(false), Bool(true), nil); !ok || c != -1 {
		t.Fatalf("bool compare: %d %v", c, ok)
	}
	if c, ok := Compare(IDVal(3), IDVal(3), nil); !ok || c != 0 {
		t.Fatalf("id compare: %d %v", c, ok)
	}
}

func TestCompareIncomparable(t *testing.T) {
	if _, ok := Compare(Float(1), String("a"), nil); ok {
		t.Fatal("float/string compared")
	}
}

func TestDictResolver(t *testing.T) {
	d := dict.New()
	numID := d.Encode(dict.Term{Kind: dict.Literal, Value: "42.5"})
	strID := d.Encode(dict.Term{Kind: dict.Literal, Value: "hello"})
	iriID := d.Encode(dict.Term{Kind: dict.IRI, Value: "http://x/a"})
	r := DictResolver{Dict: d}
	if v := r.ResolveID(numID); v.Kind != KindFloat || v.Num != 42.5 {
		t.Fatalf("numeric literal resolved to %s", v)
	}
	if v := r.ResolveID(strID); v.Kind != KindString || v.Str != "hello" {
		t.Fatalf("string literal resolved to %s", v)
	}
	if v := r.ResolveID(iriID); v.Kind != KindString || v.Str != "http://x/a" {
		t.Fatalf("IRI resolved to %s", v)
	}
	if v := r.ResolveID(999); !v.IsNull() {
		t.Fatalf("unknown ID resolved to %s", v)
	}
}

func TestCompareResolvesIDs(t *testing.T) {
	d := dict.New()
	id := d.Encode(dict.Term{Kind: dict.Literal, Value: "7"})
	r := DictResolver{Dict: d}
	if c, ok := Compare(IDVal(id), Float(5), r); !ok || c != 1 {
		t.Fatalf("resolved compare: %d %v", c, ok)
	}
}

// TestCompareTwoIDsByValue: IDs follow insertion order, which must not
// show in a comparison of two graph terms. One ID is equal to itself
// without a resolver; two IDs nobody can decode are incomparable.
func TestCompareTwoIDsByValue(t *testing.T) {
	d := dict.New()
	big, small, text := d.Encode(dict.Term{Kind: dict.Literal, Value: "93"}), d.Encode(dict.Term{Kind: dict.Literal, Value: "5"}), d.Encode(dict.Term{Kind: dict.Literal, Value: "tag"})
	r := DictResolver{Dict: d}
	if c, ok := Compare(IDVal(big), IDVal(small), r); !ok || c != 1 {
		t.Fatalf(`"93" vs "5" (IDs %d, %d) = %d %v, want 1`, big, small, c, ok)
	}
	if c, ok := Compare(IDVal(small), IDVal(big), r); !ok || c != -1 {
		t.Fatalf(`"5" vs "93" = %d %v, want -1`, c, ok)
	}
	if _, ok := Compare(IDVal(big), IDVal(text), r); ok {
		t.Fatal("a number and a text term compared")
	}
	if c, ok := Compare(IDVal(big), IDVal(big), nil); !ok || c != 0 {
		t.Fatalf("one ID vs itself = %d %v", c, ok)
	}
	if _, ok := Compare(IDVal(big), IDVal(small), nil); ok {
		t.Fatal("two IDs ordered without a resolver")
	}
}

// TestEvalUnboundVariableIsAnError: in scope but unbound (an unmatched
// OPTIONAL) errors like out of scope, so !(?d) cannot turn it into true.
func TestEvalUnboundVariableIsAnError(t *testing.T) {
	for _, e := range []Expr{&Var{Name: "d"}, &Not{Child: &Var{Name: "d"}}, &Var{Name: "nosuch"}} {
		if _, err := eval(e, env{"d": Null}, nil, nil); !errors.Is(err, ErrUnboundVar) {
			t.Errorf("%s: err = %v, want ErrUnboundVar", e, err)
		}
	}
}

// env is one row, by variable name.
type env map[string]Value

// eval compiles e for a layout of env's variables and evaluates it on
// env's row.
func eval(e Expr, row env, funcs FuncResolver, terms Resolver) (Value, error) {
	var vars []string
	var vals []Value
	for name, v := range row {
		vars, vals = append(vars, name), append(vals, v)
	}
	return Compile(e, vars, funcs).Eval(&Frame{Vals: vals, Terms: terms})
}

func evalBool(e Expr, row env, funcs FuncResolver) (bool, error) {
	v, err := eval(e, row, funcs, nil)
	return err == nil && v.Truthy(), err
}

type fakeFuncs map[string]func(args []Value) (Value, error)

func (f fakeFuncs) Bind(name string) Callee { return fakeCallee(f[name]) }

// fakeCallee costs 0.25 a call; a nil one is an unknown UDF.
type fakeCallee func(args []Value) (Value, error)

func (fn fakeCallee) Call(args []Value, terms Resolver) (Value, float64, error) {
	if fn == nil {
		return Null, 0, errors.New("unknown UDF")
	}
	ResolveArgs(args, terms)
	v, err := fn(args)
	return v, 0.25, err
}

var testFuncs = fakeFuncs{
	"double": func(args []Value) (Value, error) { return Float(args[0].Num * 2), nil },
	"fail":   func(args []Value) (Value, error) { return Null, errors.New("boom") },
}

func TestEvalConstsAndVars(t *testing.T) {
	x := env{"x": Float(3)}
	v, err := eval(&Const{Val: Float(2)}, x, testFuncs, nil)
	if err != nil || v.Num != 2 {
		t.Fatalf("const: %s %v", v, err)
	}
	v, err = eval(&Var{Name: "x"}, x, testFuncs, nil)
	if err != nil || v.Num != 3 {
		t.Fatalf("var: %s %v", v, err)
	}
	if _, err = eval(&Var{Name: "missing"}, x, testFuncs, nil); !errors.Is(err, ErrUnboundVar) {
		t.Fatalf("unbound: %v", err)
	}
}

func TestEvalComparisons(t *testing.T) {
	cases := []struct {
		op   CmpOp
		want bool
	}{
		{EQ, false}, {NE, true}, {LT, true}, {LE, true}, {GT, false}, {GE, false},
	}
	for _, c := range cases {
		e := &Cmp{Op: c.op, L: &Var{Name: "x"}, R: &Const{Val: Float(5)}}
		got, err := evalBool(e, env{"x": Float(3)}, testFuncs)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("3 %s 5 = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestEvalIncomparableEquality(t *testing.T) {
	eq := &Cmp{Op: EQ, L: &Const{Val: Float(1)}, R: &Const{Val: String("a")}}
	if got, err := evalBool(eq, nil, testFuncs); err != nil || got {
		t.Fatalf("cross-kind EQ: %v %v", got, err)
	}
	ne := &Cmp{Op: NE, L: &Const{Val: Float(1)}, R: &Const{Val: String("a")}}
	if got, err := evalBool(ne, nil, testFuncs); err != nil || !got {
		t.Fatalf("cross-kind NE: %v %v", got, err)
	}
	lt := &Cmp{Op: LT, L: &Const{Val: Float(1)}, R: &Const{Val: String("a")}}
	if _, err := evalBool(lt, nil, testFuncs); !errors.Is(err, ErrIncomparable) {
		t.Fatalf("cross-kind LT err = %v", err)
	}
}

func TestEvalArith(t *testing.T) {
	x := env{"x": Float(10)}
	e := &Arith{Op: Div, L: &Arith{Op: Add, L: &Var{Name: "x"}, R: &Const{Val: Float(2)}}, R: &Const{Val: Float(4)}}
	v, err := eval(e, x, testFuncs, nil)
	if err != nil || v.Num != 3 {
		t.Fatalf("(10+2)/4 = %s, %v", v, err)
	}
	sub := &Arith{Op: Sub, L: &Var{Name: "x"}, R: &Const{Val: Float(1)}}
	if v, _ := eval(sub, x, testFuncs, nil); v.Num != 9 {
		t.Fatalf("10-1 = %s", v)
	}
	mul := &Arith{Op: Mul, L: &Var{Name: "x"}, R: &Const{Val: Float(3)}}
	if v, _ := eval(mul, x, testFuncs, nil); v.Num != 30 {
		t.Fatalf("10*3 = %s", v)
	}
	div0 := &Arith{Op: Div, L: &Var{Name: "x"}, R: &Const{Val: Float(0)}}
	if _, err := eval(div0, x, testFuncs, nil); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("div0 err = %v", err)
	}
	bad := &Arith{Op: Add, L: &Const{Val: String("a")}, R: &Const{Val: Float(1)}}
	if _, err := eval(bad, x, testFuncs, nil); !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("non-numeric err = %v", err)
	}
}

func TestEvalLogic(t *testing.T) {
	tr := &Const{Val: Bool(true)}
	fa := &Const{Val: Bool(false)}
	if got, _ := evalBool(&And{Children: []Expr{tr, tr}}, nil, testFuncs); !got {
		t.Fatal("true && true")
	}
	if got, _ := evalBool(&And{Children: []Expr{tr, fa}}, nil, testFuncs); got {
		t.Fatal("true && false")
	}
	if got, _ := evalBool(&Or{Children: []Expr{fa, tr}}, nil, testFuncs); !got {
		t.Fatal("false || true")
	}
	if got, _ := evalBool(&Or{Children: []Expr{fa, fa}}, nil, testFuncs); got {
		t.Fatal("false || false")
	}
	if got, _ := evalBool(&Not{Child: fa}, nil, testFuncs); !got {
		t.Fatal("!false")
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// The failing UDF must never run when And short-circuits.
	e := &And{Children: []Expr{
		&Const{Val: Bool(false)},
		&Call{Name: "fail"},
	}}
	got, err := evalBool(e, nil, testFuncs)
	if err != nil || got {
		t.Fatalf("short-circuit: %v %v", got, err)
	}
}

func TestEvalUDFCall(t *testing.T) {
	x := env{"x": Float(21)}
	e := &Call{Name: "double", Args: []Expr{&Var{Name: "x"}}}
	v, err := eval(e, x, testFuncs, nil)
	if err != nil || v.Num != 42 {
		t.Fatalf("double(21) = %s, %v", v, err)
	}
	if _, err := eval(&Call{Name: "nope"}, x, testFuncs, nil); err == nil {
		t.Fatal("unknown UDF succeeded")
	}
	if _, err := eval(&Call{Name: "double"}, x, nil, nil); !errors.Is(err, ErrNoResolver) {
		t.Fatalf("no resolver err = %v", err)
	}
}

// argSpy is a FuncResolver whose callees record the argument frame as
// the program handed it over, then behave like fakeFuncs.
type argSpy struct {
	fakeFuncs
	got map[string][]Value
}

func (s *argSpy) Bind(name string) Callee { return spyCallee{s, name} }

type spyCallee struct {
	s    *argSpy
	name string
}

func (c spyCallee) Call(args []Value, terms Resolver) (Value, float64, error) {
	c.s.got[c.name] = append([]Value(nil), args...)
	return c.s.fakeFuncs.Bind(c.name).Call(args, terms)
}

// TestEvalPassesIDsToUDFs pins the Callee contract: a variable
// bound to a dictionary ID reaches the resolver as that ID, computed
// arguments (nested calls, arithmetic) reach it as concrete values, and
// the UDF body never sees an ID either way.
func TestEvalPassesIDsToUDFs(t *testing.T) {
	d := dict.New()
	id := d.Encode(dict.Term{Kind: dict.Literal, Value: "21"})
	concrete := func(args []Value) (Value, error) {
		for _, a := range args {
			if a.Kind == KindID {
				return Null, errors.New("UDF body received an unresolved ID")
			}
		}
		return Float(args[0].Num * 2), nil
	}
	x := &Var{Name: "x"}
	cases := []struct {
		name string
		e    Expr
		fArg Value // what f's resolver call must receive
		want float64
	}{
		{"f(?x)", &Call{Name: "f", Args: []Expr{x}}, IDVal(id), 42},
		{"f(g(?x))", &Call{Name: "f", Args: []Expr{&Call{Name: "g", Args: []Expr{x}}}}, Float(42), 84},
		{"f(?x * 2)", &Call{Name: "f", Args: []Expr{&Arith{Op: Mul, L: x, R: &Const{Val: Float(2)}}}}, Float(42), 84},
	}
	for _, c := range cases {
		spy := &argSpy{fakeFuncs: fakeFuncs{"f": concrete, "g": concrete}, got: map[string][]Value{}}
		v, err := eval(c.e, env{"x": IDVal(id)}, spy, DictResolver{Dict: d})
		if err != nil || v != Float(c.want) {
			t.Fatalf("%s = %s, %v; want %g", c.name, v, err, c.want)
		}
		if got := spy.got["f"]; len(got) != 1 || got[0] != c.fArg {
			t.Fatalf("%s: resolver received %v for f, want [%s]", c.name, got, c.fArg)
		}
		if got, nested := spy.got["g"]; nested && (len(got) != 1 || got[0] != IDVal(id)) {
			t.Fatalf("%s: resolver received %v for g, want [%s]", c.name, got, IDVal(id))
		}
	}
}

func TestExprString(t *testing.T) {
	e := &And{Children: []Expr{
		&Cmp{Op: GE, L: &Var{Name: "sim"}, R: &Const{Val: Float(0.9)}},
		&Not{Child: &Call{Name: "dock", Args: []Expr{&Var{Name: "c"}}}},
	}}
	got := e.String()
	want := "((?sim >= 0.9) && !(dock(?c)))"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestVarsAndCallNames(t *testing.T) {
	e := &Or{Children: []Expr{
		&Cmp{Op: LT, L: &Var{Name: "a"}, R: &Arith{Op: Add, L: &Var{Name: "b"}, R: &Var{Name: "a"}}},
		&Call{Name: "f", Args: []Expr{&Call{Name: "g", Args: []Expr{&Var{Name: "c"}}}}},
	}}
	vars := Vars(e)
	if len(vars) != 3 || vars[0] != "a" || vars[1] != "b" || vars[2] != "c" {
		t.Fatalf("Vars = %v", vars)
	}
	calls := CallNames(e)
	if len(calls) != 2 || calls[0] != "f" || calls[1] != "g" {
		t.Fatalf("CallNames = %v", calls)
	}
}

func TestConjunctsFlattens(t *testing.T) {
	a := &Cmp{Op: EQ, L: &Var{Name: "x"}, R: &Const{Val: Float(1)}}
	b := &Cmp{Op: EQ, L: &Var{Name: "y"}, R: &Const{Val: Float(2)}}
	c := &Cmp{Op: EQ, L: &Var{Name: "z"}, R: &Const{Val: Float(3)}}
	nested := &And{Children: []Expr{&And{Children: []Expr{a, b}}, c}}
	got := Conjuncts(nested)
	if len(got) != 3 {
		t.Fatalf("Conjuncts = %d, want 3", len(got))
	}
	if got := Conjuncts(a); len(got) != 1 || got[0] != Expr(a) {
		t.Fatal("single conjunct mishandled")
	}
}

type fakeEst struct {
	costs   map[string]float64
	rejects map[string]float64
}

func (f fakeEst) EstimateCost(name string) (float64, bool) {
	c, ok := f.costs[name]
	return c, ok
}

func (f fakeEst) RejectRate(name string) float64 { return f.rejects[name] }

func callNamed(name string) Expr { return &Call{Name: name} }

func TestReorderByCost(t *testing.T) {
	est := fakeEst{
		costs: map[string]float64{"dock": 35, "dtba": 0.5, "sw": 0.001, "pic50": 0.00001},
	}
	chain := []Expr{callNamed("dock"), callNamed("dtba"), callNamed("sw"), callNamed("pic50")}
	got := ReorderChain(chain, est)
	want := []string{"pic50", "sw", "dtba", "dock"}
	for i, e := range got {
		if e.(*Call).Name != want[i] {
			t.Fatalf("position %d = %s, want %s", i, e.(*Call).Name, want[i])
		}
	}
}

func TestReorderTieBreakBySelectivity(t *testing.T) {
	// Similar costs (within 20%): higher reject rate first.
	est := fakeEst{
		costs:   map[string]float64{"a": 1.0, "b": 1.1},
		rejects: map[string]float64{"a": 0.1, "b": 0.9},
	}
	got := ReorderChain([]Expr{callNamed("a"), callNamed("b")}, est)
	if got[0].(*Call).Name != "b" {
		t.Fatalf("tie-break failed: first = %s", got[0].(*Call).Name)
	}
	// Dissimilar costs: cheaper first regardless of selectivity.
	est2 := fakeEst{
		costs:   map[string]float64{"a": 1.0, "b": 10},
		rejects: map[string]float64{"a": 0.1, "b": 0.9},
	}
	got = ReorderChain([]Expr{callNamed("b"), callNamed("a")}, est2)
	if got[0].(*Call).Name != "a" {
		t.Fatalf("cost order failed: first = %s", got[0].(*Call).Name)
	}
}

func TestReorderPlainConjunctsFirst(t *testing.T) {
	est := fakeEst{costs: map[string]float64{"udf": 0.5}}
	plain := &Cmp{Op: GT, L: &Var{Name: "x"}, R: &Const{Val: Float(0)}}
	got := ReorderChain([]Expr{callNamed("udf"), plain}, est)
	if _, ok := got[0].(*Cmp); !ok {
		t.Fatal("plain comparison should evaluate before UDFs")
	}
}

func TestReorderUnknownUDFLast(t *testing.T) {
	est := fakeEst{costs: map[string]float64{"known": 0.01}}
	got := ReorderChain([]Expr{callNamed("mystery"), callNamed("known")}, est)
	if got[0].(*Call).Name != "known" {
		t.Fatal("unprofiled UDF should be pessimistically late")
	}
}

func TestReorderWholeExpr(t *testing.T) {
	est := fakeEst{costs: map[string]float64{"slow": 10, "fast": 0.001}}
	e := &And{Children: []Expr{callNamed("slow"), callNamed("fast")}}
	if got := ReorderChain(Conjuncts(e), est); got[0].(*Call).Name != "fast" {
		t.Fatalf("ReorderChain = %v", got)
	}
	// A non-conjunction is a chain of one, unchanged.
	single := callNamed("slow")
	if got := ReorderChain(Conjuncts(single), est); len(got) != 1 || got[0] != Expr(single) {
		t.Fatal("single expression should be unchanged")
	}
}

// Property: reordering preserves the conjunct multiset.
func TestReorderPreservesConjuncts(t *testing.T) {
	est := fakeEst{costs: map[string]float64{}}
	f := func(names []string) bool {
		if len(names) > 12 {
			names = names[:12]
		}
		chain := make([]Expr, len(names))
		for i, n := range names {
			chain[i] = callNamed("f" + n)
		}
		out := ReorderChain(chain, est)
		if len(out) != len(chain) {
			return false
		}
		count := map[string]int{}
		for _, e := range chain {
			count[e.(*Call).Name]++
		}
		for _, e := range out {
			count[e.(*Call).Name]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
