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
	ctx := &Ctx{Env: MapEnv{"d": Null}}
	for _, e := range []Expr{&Var{Name: "d"}, &Not{Child: &Var{Name: "d"}}, &Var{Name: "nosuch"}} {
		if _, err := Eval(e, ctx); !errors.Is(err, ErrUnboundVar) {
			t.Errorf("%s: err = %v, want ErrUnboundVar", e, err)
		}
	}
}

type fakeFuncs map[string]func(args []Value) (Value, error)

func (f fakeFuncs) CallLazy(name string, args []Value, terms Resolver) (Value, float64, error) {
	fn, ok := f[name]
	if !ok {
		return Null, 0, errors.New("unknown UDF " + name)
	}
	ResolveArgs(args, terms)
	v, err := fn(args)
	return v, 0.25, err
}

func testCtx(env MapEnv) *Ctx {
	return &Ctx{
		Env: env,
		Funcs: fakeFuncs{
			"double": func(args []Value) (Value, error) { return Float(args[0].Num * 2), nil },
			"fail":   func(args []Value) (Value, error) { return Null, errors.New("boom") },
		},
	}
}

func TestEvalConstsAndVars(t *testing.T) {
	ctx := testCtx(MapEnv{"x": Float(3)})
	v, err := Eval(&Const{Val: Float(2)}, ctx)
	if err != nil || v.Num != 2 {
		t.Fatalf("const: %s %v", v, err)
	}
	v, err = Eval(&Var{Name: "x"}, ctx)
	if err != nil || v.Num != 3 {
		t.Fatalf("var: %s %v", v, err)
	}
	if _, err = Eval(&Var{Name: "missing"}, ctx); !errors.Is(err, ErrUnboundVar) {
		t.Fatalf("unbound: %v", err)
	}
}

func TestEvalComparisons(t *testing.T) {
	ctx := testCtx(MapEnv{"x": Float(3)})
	cases := []struct {
		op   CmpOp
		want bool
	}{
		{EQ, false}, {NE, true}, {LT, true}, {LE, true}, {GT, false}, {GE, false},
	}
	for _, c := range cases {
		e := &Cmp{Op: c.op, L: &Var{Name: "x"}, R: &Const{Val: Float(5)}}
		got, err := EvalBool(e, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("3 %s 5 = %v, want %v", c.op, got, c.want)
		}
	}
}

func TestEvalIncomparableEquality(t *testing.T) {
	ctx := testCtx(MapEnv{})
	eq := &Cmp{Op: EQ, L: &Const{Val: Float(1)}, R: &Const{Val: String("a")}}
	if got, err := EvalBool(eq, ctx); err != nil || got {
		t.Fatalf("cross-kind EQ: %v %v", got, err)
	}
	ne := &Cmp{Op: NE, L: &Const{Val: Float(1)}, R: &Const{Val: String("a")}}
	if got, err := EvalBool(ne, ctx); err != nil || !got {
		t.Fatalf("cross-kind NE: %v %v", got, err)
	}
	lt := &Cmp{Op: LT, L: &Const{Val: Float(1)}, R: &Const{Val: String("a")}}
	if _, err := EvalBool(lt, ctx); !errors.Is(err, ErrIncomparable) {
		t.Fatalf("cross-kind LT err = %v", err)
	}
}

func TestEvalArith(t *testing.T) {
	ctx := testCtx(MapEnv{"x": Float(10)})
	e := &Arith{Op: Div, L: &Arith{Op: Add, L: &Var{Name: "x"}, R: &Const{Val: Float(2)}}, R: &Const{Val: Float(4)}}
	v, err := Eval(e, ctx)
	if err != nil || v.Num != 3 {
		t.Fatalf("(10+2)/4 = %s, %v", v, err)
	}
	sub := &Arith{Op: Sub, L: &Var{Name: "x"}, R: &Const{Val: Float(1)}}
	if v, _ := Eval(sub, ctx); v.Num != 9 {
		t.Fatalf("10-1 = %s", v)
	}
	mul := &Arith{Op: Mul, L: &Var{Name: "x"}, R: &Const{Val: Float(3)}}
	if v, _ := Eval(mul, ctx); v.Num != 30 {
		t.Fatalf("10*3 = %s", v)
	}
	div0 := &Arith{Op: Div, L: &Var{Name: "x"}, R: &Const{Val: Float(0)}}
	if _, err := Eval(div0, ctx); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("div0 err = %v", err)
	}
	bad := &Arith{Op: Add, L: &Const{Val: String("a")}, R: &Const{Val: Float(1)}}
	if _, err := Eval(bad, ctx); !errors.Is(err, ErrNotNumeric) {
		t.Fatalf("non-numeric err = %v", err)
	}
}

func TestEvalLogic(t *testing.T) {
	ctx := testCtx(MapEnv{})
	tr := &Const{Val: Bool(true)}
	fa := &Const{Val: Bool(false)}
	if got, _ := EvalBool(&And{Children: []Expr{tr, tr}}, ctx); !got {
		t.Fatal("true && true")
	}
	if got, _ := EvalBool(&And{Children: []Expr{tr, fa}}, ctx); got {
		t.Fatal("true && false")
	}
	if got, _ := EvalBool(&Or{Children: []Expr{fa, tr}}, ctx); !got {
		t.Fatal("false || true")
	}
	if got, _ := EvalBool(&Or{Children: []Expr{fa, fa}}, ctx); got {
		t.Fatal("false || false")
	}
	if got, _ := EvalBool(&Not{Child: fa}, ctx); !got {
		t.Fatal("!false")
	}
}

func TestEvalShortCircuit(t *testing.T) {
	// The failing UDF must never run when And short-circuits.
	ctx := testCtx(MapEnv{})
	e := &And{Children: []Expr{
		&Const{Val: Bool(false)},
		&Call{Name: "fail"},
	}}
	got, err := EvalBool(e, ctx)
	if err != nil || got {
		t.Fatalf("short-circuit: %v %v", got, err)
	}
}

func TestEvalUDFCall(t *testing.T) {
	ctx := testCtx(MapEnv{"x": Float(21)})
	e := &Call{Name: "double", Args: []Expr{&Var{Name: "x"}}}
	v, err := Eval(e, ctx)
	if err != nil || v.Num != 42 {
		t.Fatalf("double(21) = %s, %v", v, err)
	}
	if _, err := Eval(&Call{Name: "nope"}, ctx); err == nil {
		t.Fatal("unknown UDF succeeded")
	}
	noCtx := &Ctx{Env: MapEnv{}}
	if _, err := Eval(&Call{Name: "double"}, noCtx); !errors.Is(err, ErrNoResolver) {
		t.Fatalf("no resolver err = %v", err)
	}
}

// argSpy is a FuncResolver that records the argument frame as Eval
// handed it over, then behaves like fakeFuncs.
type argSpy struct {
	fakeFuncs
	got map[string][]Value
}

func (s *argSpy) CallLazy(name string, args []Value, terms Resolver) (Value, float64, error) {
	s.got[name] = append([]Value(nil), args...)
	return s.fakeFuncs.CallLazy(name, args, terms)
}

// TestEvalPassesIDsToUDFs pins the FuncResolver contract: a variable
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
		ctx := &Ctx{Env: MapEnv{"x": IDVal(id)}, Funcs: spy, Terms: DictResolver{Dict: d}}
		v, err := Eval(c.e, ctx)
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

// MapEnv is an Env backed by a map; convenient in tests and UDF glue.
type MapEnv map[string]Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (Value, bool) {
	v, ok := m[name]
	return v, ok
}
