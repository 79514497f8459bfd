package udf

import (
	"errors"
	"strings"
	"testing"

	"ids/internal/expr"
)

func identity(args []expr.Value) (expr.Value, error) {
	if len(args) == 0 {
		return expr.Null, nil
	}
	return args[0], nil
}

func TestRegisterAndCall(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("id", identity); err != nil {
		t.Fatal(err)
	}
	v, cost, err := r.CallUDF("id", []expr.Value{expr.Float(7)})
	if err != nil {
		t.Fatal(err)
	}
	if v.Num != 7 {
		t.Fatalf("result = %s", v)
	}
	if cost < 0 {
		t.Fatalf("negative cost %f", cost)
	}
}

func TestRegisterDuplicateFails(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("f", identity); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("f", identity); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
}

func TestCallUnknown(t *testing.T) {
	r := NewRegistry()
	if _, _, err := r.CallUDF("ghost", nil); !errors.Is(err, ErrUnknown) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeclaredCostOverridesWallTime(t *testing.T) {
	r := NewRegistry()
	err := r.RegisterWithCost("dock", identity, func([]expr.Value) float64 { return 35.5 })
	if err != nil {
		t.Fatal(err)
	}
	_, cost, err := r.CallUDF("dock", []expr.Value{expr.String("CCO")})
	if err != nil {
		t.Fatal(err)
	}
	if cost != 35.5 {
		t.Fatalf("cost = %f, want declared 35.5", cost)
	}
}

func TestDynamicReloadSemantics(t *testing.T) {
	r := NewRegistry()
	v1 := func([]expr.Value) (expr.Value, error) { return expr.Float(1), nil }
	v2 := func([]expr.Value) (expr.Value, error) { return expr.Float(2), nil }
	if err := r.RegisterDynamic("mymod", "f", v1, nil); err != nil {
		t.Fatal(err)
	}
	out, _, _ := r.CallUDF("mymod.f", nil)
	if out.Num != 1 {
		t.Fatalf("v1 = %s", out)
	}
	// Dynamic functions may be replaced (module reload).
	if err := r.RegisterDynamic("mymod", "f", v2, nil); err != nil {
		t.Fatal(err)
	}
	out, _, _ = r.CallUDF("mymod.f", nil)
	if out.Num != 2 {
		t.Fatalf("v2 = %s", out)
	}
	if e, ok := r.tab.Load().entries["mymod.f"]; !ok || !e.dynamic {
		t.Fatal("IsDynamic false for dynamic UDF")
	}
}

func TestStaticNotReplaceable(t *testing.T) {
	r := NewRegistry()
	if err := r.Register("mod.f", identity); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterDynamic("mod", "f", identity, nil); !errors.Is(err, ErrStatic) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnloadModule(t *testing.T) {
	r := NewRegistry()
	_ = r.RegisterDynamic("m", "a", identity, nil)
	_ = r.RegisterDynamic("m", "b", identity, nil)
	_ = r.RegisterDynamic("other", "c", identity, nil)
	if err := r.ReplaceModule("m", nil); err != nil {
		t.Fatal(err)
	}
	if has(r, "m.a") || has(r, "m.b") {
		t.Fatal("module functions survived unload")
	}
	if !has(r, "other.c") {
		t.Fatal("unrelated module removed")
	}
}

func TestProfilerRecordAndEstimate(t *testing.T) {
	p := NewProfiler()
	record(p, "sw", 0.001, true)
	record(p, "sw", 0.003, false)
	s := p.Get("sw")
	if s.Execs != 2 || s.Rejections != 1 {
		t.Fatalf("stats = %+v", s)
	}
	mean, ok := p.EstimateCost("sw")
	if !ok || mean != 0.002 {
		t.Fatalf("mean = %f, %v", mean, ok)
	}
	if rr := p.RejectRate("sw"); rr != 0.5 {
		t.Fatalf("reject rate = %f", rr)
	}
}

func TestProfilerUnknown(t *testing.T) {
	p := NewProfiler()
	if _, ok := p.EstimateCost("nope"); ok {
		t.Fatal("estimate for unknown UDF")
	}
	if rr := p.RejectRate("nope"); rr != 0 {
		t.Fatalf("reject rate = %f", rr)
	}
	if s := p.Get("nope"); s.Execs != 0 {
		t.Fatalf("Get = %+v", s)
	}
}

func TestProfilerSnapshotMerge(t *testing.T) {
	a := NewProfiler()
	record(a, "f", 1, true)
	b := NewProfiler()
	record(b, "f", 3, false)
	record(b, "g", 2, true)
	a.Merge(b.Snapshot())
	f := a.Get("f")
	if f.Execs != 2 || f.TotalSeconds != 4 || f.Rejections != 1 {
		t.Fatalf("merged f = %+v", f)
	}
	if g := a.Get("g"); g.Execs != 1 {
		t.Fatalf("merged g = %+v", g)
	}
}

func TestProfilerString(t *testing.T) {
	p := NewProfiler()
	record(p, "dock", 35, false)
	out := p.String()
	if !strings.Contains(out, "dock") || !strings.Contains(out, "execs=1") {
		t.Fatalf("String = %q", out)
	}
}

func TestStatsMean(t *testing.T) {
	if (Stats{}).MeanSeconds() != 0 {
		t.Fatal("zero stats mean should be 0")
	}
	if (Stats{Execs: 4, TotalSeconds: 2}).MeanSeconds() != 0.5 {
		t.Fatal("mean wrong")
	}
}

func TestRegistryImplementsEstimatorPipeline(t *testing.T) {
	// End-to-end: registry call cost feeds the profiler, which orders
	// the expression chain.
	r := NewRegistry()
	_ = r.RegisterWithCost("cheap", identity, func([]expr.Value) float64 { return 0.001 })
	_ = r.RegisterWithCost("pricey", identity, func([]expr.Value) float64 { return 5 })
	p := NewProfiler()
	for i := 0; i < 3; i++ {
		_, c, err := r.CallUDF("cheap", []expr.Value{expr.Float(1)})
		if err != nil {
			t.Fatal(err)
		}
		record(p, "cheap", c, false)
		_, c, err = r.CallUDF("pricey", []expr.Value{expr.Float(1)})
		if err != nil {
			t.Fatal(err)
		}
		record(p, "pricey", c, true)
	}
	var chain []expr.ConjunctStats
	for _, name := range []string{"pricey", "cheap"} {
		chain = append(chain, expr.EstimateCalls(&expr.Call{Name: name}, []string{name}, p))
	}
	expr.SortConjuncts(chain)
	if chain[0].Expr.(*expr.Call).Name != "cheap" {
		t.Fatal("profiled costs did not drive reordering")
	}
}

// has reports whether name is registered.
func has(r *Registry, name string) bool {
	_, ok := r.tab.Load().entries[name]
	return ok
}

// record adds one execution of name the way a FILTER batch does.
func record(p *Profiler, name string, seconds float64, rejected bool) {
	p.Lock()
	defer p.Unlock()
	s := p.Stat(name)
	s.Execs++
	s.TotalSeconds += seconds
	if rejected {
		s.Rejections++
	}
}
