package script

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"ids/internal/expr"
	"ids/internal/udf"
)

func mustModule(t *testing.T, src string) *Module {
	t.Helper()
	m, err := ParseModule("m", src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func callF(t *testing.T, m *Module, fn string, args ...expr.Value) expr.Value {
	t.Helper()
	v, err := m.Call(fn, args)
	if err != nil {
		t.Fatalf("Call(%s): %v", fn, err)
	}
	return v
}

func TestSimpleFunction(t *testing.T) {
	m := mustModule(t, `
		def double(x) {
			return x * 2
		}`)
	v := callF(t, m, "double", expr.Float(21))
	if v.Num != 42 {
		t.Fatalf("double(21) = %s", v)
	}
}

func TestLetAssignArith(t *testing.T) {
	m := mustModule(t, `
		def f(x) {
			let y = x + 1
			y = y * 3
			return y - 2   # (x+1)*3 - 2
		}`)
	if v := callF(t, m, "f", expr.Float(4)); v.Num != 13 {
		t.Fatalf("f(4) = %s", v)
	}
}

func TestIfElseChain(t *testing.T) {
	m := mustModule(t, `
		def grade(x) {
			if x >= 90 {
				return "A"
			} else if x >= 80 {
				return "B"
			} else {
				return "C"
			}
		}`)
	cases := map[float64]string{95: "A", 85: "B", 10: "C"}
	for in, want := range cases {
		if v := callF(t, m, "grade", expr.Float(in)); v.Str != want {
			t.Fatalf("grade(%f) = %s, want %s", in, v, want)
		}
	}
}

func TestWhileLoop(t *testing.T) {
	m := mustModule(t, `
		def sumto(n) {
			let s = 0
			let i = 1
			while i <= n {
				s = s + i
				i = i + 1
			}
			return s
		}`)
	if v := callF(t, m, "sumto", expr.Float(100)); v.Num != 5050 {
		t.Fatalf("sumto(100) = %s", v)
	}
}

func TestRecursionAndIntraModuleCalls(t *testing.T) {
	m := mustModule(t, `
		def fib(n) {
			if n < 2 {
				return n
			}
			return fib(n-1) + fib(n-2)
		}
		def fib10() {
			return fib(10)
		}`)
	if v := callF(t, m, "fib10"); v.Num != 55 {
		t.Fatalf("fib(10) = %s", v)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	m := mustModule(t, `
		def inf(n) {
			return inf(n+1)
		}`)
	_, err := m.Call("inf", []expr.Value{expr.Float(0)})
	if !errors.Is(err, ErrDepth) {
		t.Fatalf("err = %v", err)
	}
}

func TestStepBudget(t *testing.T) {
	m := mustModule(t, `
		def spin() {
			let i = 0
			while true {
				i = i + 1
			}
		}`)
	_, err := m.Call("spin", nil)
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v", err)
	}
}

func TestStringsAndBuiltins(t *testing.T) {
	m := mustModule(t, `
		def greet(name) {
			return "hello " + upper(name)
		}
		def mid(s) {
			return substr(s, 1, 3)
		}
		def has(s) {
			return contains(s, "CO")
		}
		def mathy(x) {
			return sqrt(pow(x, 2)) + abs(0 - 1) + min(3, 4) + max(1, 2) + floor(1.5) + ceil(0.2)
		}
		def logs(x) {
			return log10(x) + log(exp(1)) + x % 3
		}
		def slen(s) {
			return len(s)
		}`)
	if v := callF(t, m, "greet", expr.String("ada")); v.Str != "hello ADA" {
		t.Fatalf("greet = %s", v)
	}
	if v := callF(t, m, "mid", expr.String("ABCDE")); v.Str != "BC" {
		t.Fatalf("mid = %s", v)
	}
	if v := callF(t, m, "has", expr.String("ACCOK")); !v.Bool {
		t.Fatalf("has = %s", v)
	}
	if v := callF(t, m, "mathy", expr.Float(5)); v.Num != 5+1+3+2+1+1 {
		t.Fatalf("mathy = %s", v)
	}
	if v := callF(t, m, "logs", expr.Float(100)); math.Abs(v.Num-(2+1+1)) > 1e-9 {
		t.Fatalf("logs = %s", v)
	}
	if v := callF(t, m, "slen", expr.String("1234")); v.Num != 4 {
		t.Fatalf("slen = %s", v)
	}
}

func TestLogicAndUnary(t *testing.T) {
	m := mustModule(t, `
		def f(a, b) {
			return (a > 0 && b > 0) || (!(a > 0) && b < 0)
		}
		def neg(x) {
			return -x
		}`)
	if v := callF(t, m, "f", expr.Float(1), expr.Float(1)); !v.Bool {
		t.Fatal("1,1")
	}
	if v := callF(t, m, "f", expr.Float(-1), expr.Float(-1)); !v.Bool {
		t.Fatal("-1,-1")
	}
	if v := callF(t, m, "f", expr.Float(1), expr.Float(-1)); v.Bool {
		t.Fatal("1,-1")
	}
	if v := callF(t, m, "neg", expr.Float(3)); v.Num != -3 {
		t.Fatalf("neg = %s", v)
	}
}

func TestRuntimeErrors(t *testing.T) {
	m := mustModule(t, `
		def div(a, b) {
			return a / b
		}
		def undef() {
			return nothere
		}
		def undefFn() {
			return ghost(1)
		}
		def assignUndeclared() {
			x = 1
			return x
		}
		def bareReturn(x) {
			if x > 0 {
				return
			}
			return 5
		}
		def typeErr() {
			return "a" - 1
		}`)
	if _, err := m.Call("div", []expr.Value{expr.Float(1), expr.Float(0)}); err == nil {
		t.Fatal("division by zero succeeded")
	}
	if _, err := m.Call("undef", nil); !errors.Is(err, ErrUndefined) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Call("undefFn", nil); !errors.Is(err, ErrUndefined) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Call("assignUndeclared", nil); !errors.Is(err, ErrUndefined) {
		t.Fatalf("err = %v", err)
	}
	if v, err := m.Call("bareReturn", []expr.Value{expr.Float(1)}); err != nil || !v.IsNull() {
		t.Fatalf("bare return = %s, %v", v, err)
	}
	if _, err := m.Call("typeErr", nil); !errors.Is(err, ErrType) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Call("ghostFn", nil); !errors.Is(err, ErrUndefined) {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.Call("div", []expr.Value{expr.Float(1)}); !errors.Is(err, ErrArity) {
		t.Fatalf("err = %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`notdef f() {}`,
		`def f( { return 1 }`,
		`def f() { let }`,
		`def f() { if x { return 1 }`,
		`def f() { return 1 } def f() { return 2 }`,
		`def f() { return "unterminated }`,
		`def f() { return 1 ~ 2 }`,
	}
	for _, src := range bad {
		if _, err := ParseModule("bad", src); err == nil {
			t.Errorf("ParseModule(%q) succeeded", src)
		}
	}
}

func TestLogicOperatorsAndModulo(t *testing.T) {
	m := mustModule(t, `
		def logic(a, b) {
			return (a || b) && !(a && b)   # xor
		}
		def modulo(a, b) {
			return a % b
		}
		def strcat(a, b) {
			return a + b
		}
		def cmpStr(a, b) {
			return a < b || a == b
		}`)
	if v := callF(t, m, "logic", expr.Bool(true), expr.Bool(false)); !v.Bool {
		t.Fatal("xor(t,f)")
	}
	if v := callF(t, m, "logic", expr.Bool(true), expr.Bool(true)); v.Bool {
		t.Fatal("xor(t,t)")
	}
	if v := callF(t, m, "modulo", expr.Float(17), expr.Float(5)); v.Num != 2 {
		t.Fatalf("17%%5 = %s", v)
	}
	if _, err := m.Call("modulo", []expr.Value{expr.Float(1), expr.Float(0)}); !errors.Is(err, ErrType) {
		t.Fatalf("mod by zero err = %v", err)
	}
	if v := callF(t, m, "strcat", expr.String("ab"), expr.String("cd")); v.Str != "abcd" {
		t.Fatalf("strcat = %s", v)
	}
	if v := callF(t, m, "cmpStr", expr.String("a"), expr.String("b")); !v.Bool {
		t.Fatal("string compare")
	}
}

func TestCrossKindEquality(t *testing.T) {
	m := mustModule(t, `
		def eq(a, b) { return a == b }
		def ne(a, b) { return a != b }
		def lt(a, b) { return a < b }`)
	if v := callF(t, m, "eq", expr.Float(1), expr.String("1")); v.Bool {
		t.Fatal("cross-kind == should be false")
	}
	if v := callF(t, m, "ne", expr.Float(1), expr.String("1")); !v.Bool {
		t.Fatal("cross-kind != should be true")
	}
	if _, err := m.Call("lt", []expr.Value{expr.Float(1), expr.String("1")}); !errors.Is(err, ErrType) {
		t.Fatalf("cross-kind < err = %v", err)
	}
}

func TestMoreParseErrors(t *testing.T) {
	bad := []string{
		`def f(,) { return 1 }`,
		`def f() { while }`,
		`def f() { if 1 < { return 1 } }`,
		`def f() { let 5 = 1 }`,
		`def f() { return g( }`,
		`def f() { return (1 + 2 }`,
		`def f() { return 1 && }`,
		`def f() { return 1 || }`,
		`def 5() { return 1 }`,
		`def f() { return 1e }`,
		`def f() { return @ }`,
	}
	for _, src := range bad {
		if _, err := ParseModule("bad", src); err == nil {
			t.Errorf("ParseModule(%q) succeeded", src)
		}
	}
}

func TestNestedFunctionsAndBlocks(t *testing.T) {
	m := mustModule(t, `
		def helper(x) {
			return x * x
		}
		def outer(n) {
			let total = 0
			let i = 0
			while i < n {
				if helper(i) % 2 == 0 {
					total = total + helper(i)
				} else {
					total = total - 1
				}
				i = i + 1
			}
			return total
		}`)
	// i=0..4: squares 0,1,4,9,16 -> evens 0,4,16 add=20; odds 1,9 -> -2.
	if v := callF(t, m, "outer", expr.Float(5)); v.Num != 18 {
		t.Fatalf("outer(5) = %s", v)
	}
}

func TestLoaderCacheSemantics(t *testing.T) {
	l := NewLoader()
	src1 := `def f() { return 1 }`
	src2 := `def f() { return 2 }`
	m1, err := l.Load("mod", src1)
	if err != nil {
		t.Fatal(err)
	}
	// Second load with DIFFERENT source still returns the cached
	// module (the paper's cache semantics): no parse, so no import
	// cost is paid.
	m2, err := l.Load("mod", src2)
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m1 {
		t.Fatalf("cache miss on second load: %p vs %p", m2, m1)
	}
	if v, _ := m2.Call("f", nil); v.Num != 1 {
		t.Fatalf("cached module returned %s", v)
	}
	// ForceReload picks up the new source.
	m3, err := l.ForceReload("mod", src2)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Fatal("reload returned the cached module")
	}
	if v, _ := m3.Call("f", nil); v.Num != 2 {
		t.Fatalf("reloaded module returned %s", v)
	}
}

func TestRegisterIntoUDFRegistry(t *testing.T) {
	l := NewLoader()
	reg := udf.NewRegistry()
	src := `
		def sim_gate(sim, thr) {
			return sim >= thr
		}`
	if err := l.LoadAndRegister(reg, "ncnpr", src); err != nil {
		t.Fatal(err)
	}
	v, _, err := reg.CallUDF("ncnpr.sim_gate", []expr.Value{expr.Float(0.95), expr.Float(0.9)})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Bool {
		t.Fatalf("sim_gate = %s", v)
	}
	// Reload with changed logic replaces the binding.
	src2 := `
		def sim_gate(sim, thr) {
			return sim > thr + 0.04
		}`
	if err := l.ReloadAndRegister(reg, "ncnpr", src2); err != nil {
		t.Fatal(err)
	}
	v, _, err = reg.CallUDF("ncnpr.sim_gate", []expr.Value{expr.Float(0.92), expr.Float(0.9)})
	if err != nil {
		t.Fatal(err)
	}
	if v.Bool {
		t.Fatalf("reloaded sim_gate = %s, want false", v)
	}
}

func BenchmarkInterpFib15(b *testing.B) {
	m, err := ParseModule("b", `
		def fib(n) {
			if n < 2 { return n }
			return fib(n-1) + fib(n-2)
		}`)
	if err != nil {
		b.Fatal(err)
	}
	args := []expr.Value{expr.Float(15)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Call("fib", args); err != nil {
			b.Fatal(err)
		}
	}
}

// Call invokes a function of the module with the given arguments.
func (m *Module) Call(fn string, args []expr.Value) (expr.Value, error) {
	fd, ok := m.Funcs[fn]
	if !ok {
		return expr.Null, fmt.Errorf("%w function %s.%s", ErrUndefined, m.Name, fn)
	}
	in := &interp{mod: m}
	return in.invoke(fd, args)
}
