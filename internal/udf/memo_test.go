package udf

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
)

// terms is a fake dictionary: IDs it does not hold resolve to Null.
type terms map[dict.ID]expr.Value

func (m terms) ResolveID(id dict.ID) expr.Value {
	if v, ok := m[id]; ok {
		return v
	}
	return expr.Null
}

// memoLen counts the stored memo entries.
func memoLen(r *Registry) int {
	n := 0
	for i := range r.memo {
		sh := &r.memo[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// strlen is a UDF whose result and declared cost both depend on the
// argument; calls counts executions and sawID records whether the body
// was ever handed an unresolved ID.
type strlen struct {
	calls atomic.Int64
	sawID atomic.Bool
}

func (s *strlen) fn(args []expr.Value) (expr.Value, error) {
	s.calls.Add(1)
	if len(args) != 1 {
		return expr.Null, errors.New("strlen(x)")
	}
	if args[0].Kind == expr.KindID {
		s.sawID.Store(true)
	}
	return expr.Float(float64(len(args[0].Str))), nil
}

func (s *strlen) cost(args []expr.Value) float64 { return 0.5 + float64(len(args[0].Str)) }

// call is one invocation form: by value through CallUDF, or by
// dictionary ID through a bound callee with the fake dictionary.
type call func(r *Registry, name string) (expr.Value, float64, error)

func byValue(v expr.Value) call {
	return func(r *Registry, name string) (expr.Value, float64, error) {
		return r.CallUDF(name, []expr.Value{v})
	}
}

func byID(id dict.ID, d terms) call {
	return func(r *Registry, name string) (expr.Value, float64, error) {
		return r.Bind(name).Call([]expr.Value{expr.IDVal(id)}, d)
	}
}

func TestMemoContract(t *testing.T) {
	d := terms{7: expr.String("MKVL"), 8: expr.String("MKVLAA")}
	forms := map[string]call{"value": byValue(expr.String("MKVL")), "id": byID(7, d)}

	setup := func(t *testing.T, pure bool) (*Registry, *strlen) {
		r, s := NewRegistry(), &strlen{}
		if err := r.RegisterWithCost("strlen", s.fn, s.cost); err != nil {
			t.Fatal(err)
		}
		if pure {
			if err := r.MarkPure("strlen"); err != nil {
				t.Fatal(err)
			}
		}
		return r, s
	}
	mustCall := func(t *testing.T, c call, r *Registry, name string) (expr.Value, float64) {
		t.Helper()
		v, cost, err := c(r, name)
		if err != nil {
			t.Fatal(err)
		}
		return v, cost
	}

	for form, c := range forms {
		t.Run("hit replays value and cost without calling fn/"+form, func(t *testing.T) {
			r, s := setup(t, true)
			v1, c1 := mustCall(t, c, r, "strlen")
			v2, c2 := mustCall(t, c, r, "strlen")
			if v1 != expr.Float(4) || c1 != 4.5 || v2 != v1 || c2 != c1 {
				t.Fatalf("first (%s, %g), second (%s, %g); want (4, 4.5) twice", v1, c1, v2, c2)
			}
			if n := s.calls.Load(); n != 1 {
				t.Fatalf("fn ran %d times, want 1", n)
			}
			if s.sawID.Load() {
				t.Fatal("UDF body received an unresolved ID")
			}
		})
		t.Run("non-pure is never stored/"+form, func(t *testing.T) {
			r, s := setup(t, false)
			mustCall(t, c, r, "strlen")
			mustCall(t, c, r, "strlen")
			if n, m := s.calls.Load(), memoLen(r); n != 2 || m != 0 {
				t.Fatalf("fn ran %d times with %d stored; want 2 and 0", n, m)
			}
			if s.sawID.Load() {
				t.Fatal("UDF body received an unresolved ID")
			}
		})
	}

	t.Run("both key forms return the same value and cost", func(t *testing.T) {
		r, s := setup(t, true)
		vv, cv := mustCall(t, forms["value"], r, "strlen")
		vi, ci := mustCall(t, forms["id"], r, "strlen")
		if vv != vi || cv != ci {
			t.Fatalf("by value (%s, %g), by ID (%s, %g)", vv, cv, vi, ci)
		}
		// One table, two key tags: each form missed once.
		if n, m := s.calls.Load(), memoLen(r); n != 2 || m != 2 {
			t.Fatalf("fn ran %d times with %d stored; want 2 and 2", n, m)
		}
	})

	t.Run("ID with nil resolver runs unresolved and is not stored", func(t *testing.T) {
		r, s := setup(t, true)
		for i := 0; i < 2; i++ {
			v, _, err := r.Bind("strlen").Call([]expr.Value{expr.IDVal(7)}, nil)
			if err != nil || v != expr.Float(0) {
				t.Fatalf("got (%s, %v)", v, err)
			}
		}
		if n, m := s.calls.Load(), memoLen(r); n != 2 || m != 0 || !s.sawID.Load() {
			t.Fatalf("fn ran %d times with %d stored, sawID %v; want 2, 0, true", n, m, s.sawID.Load())
		}
	})

	t.Run("Null-resolving ID is not stored", func(t *testing.T) {
		r, s := setup(t, true)
		late := terms{}
		for i := 0; i < 2; i++ {
			if v, _ := mustCall(t, byID(9, late), r, "strlen"); v != expr.Float(0) {
				t.Fatalf("unknown ID gave %s", v)
			}
		}
		if n, m := s.calls.Load(), memoLen(r); n != 2 || m != 0 {
			t.Fatalf("fn ran %d times with %d stored; want 2 and 0", n, m)
		}
		// A later update assigns the ID: the call must see the term.
		late[9] = expr.String("MK")
		if v, _ := mustCall(t, byID(9, late), r, "strlen"); v != expr.Float(2) {
			t.Fatalf("assigned ID gave %s, want 2", v)
		}
		if m := memoLen(r); m != 1 {
			t.Fatalf("%d stored after the ID became known, want 1", m)
		}
	})

	t.Run("reload and unload invalidate both key forms", func(t *testing.T) {
		r := NewRegistry()
		load := func(version float64) {
			t.Helper()
			fn := func([]expr.Value) (expr.Value, error) { return expr.Float(version), nil }
			if err := r.RegisterDynamic("mod", "f", fn, nil); err != nil {
				t.Fatal(err)
			}
			if err := r.MarkPure("mod.f"); err != nil {
				t.Fatal(err)
			}
		}
		load(1)
		for form, c := range forms {
			if v, _ := mustCall(t, c, r, "mod.f"); v != expr.Float(1) {
				t.Fatalf("%s: v1 gave %s", form, v)
			}
		}
		load(2)
		if m := memoLen(r); m != 0 {
			t.Fatalf("%d entries survived the reload", m)
		}
		for form, c := range forms {
			if v, _ := mustCall(t, c, r, "mod.f"); v != expr.Float(2) {
				t.Fatalf("%s: after reload got %s, want 2", form, v)
			}
		}
		if err := r.ReplaceModule("mod", nil); err != nil {
			t.Fatal(err)
		}
		if m := memoLen(r); m != 0 {
			t.Fatalf("%d entries survived the unload", m)
		}
		for form, c := range forms {
			if _, _, err := c(r, "mod.f"); !errors.Is(err, ErrUnknown) {
				t.Fatalf("%s: after unload err = %v", form, err)
			}
		}
	})

	t.Run("a full memo still answers and stops growing", func(t *testing.T) {
		r, s := setup(t, true)
		r.shardCap = 1
		const n = 4 * memoShards
		big := terms{}
		for i := 0; i < n; i++ {
			big[dict.ID(100+i)] = expr.String(fmt.Sprintf("%0*d", i+1, 0))
		}
		pass := func() {
			t.Helper()
			for i := 0; i < n; i++ {
				want := expr.Float(float64(i + 1))
				if v, _ := mustCall(t, byID(dict.ID(100+i), big), r, "strlen"); v != want {
					t.Fatalf("ID form %d gave %s, want %s", i, v, want)
				}
				if v, _ := mustCall(t, byValue(big[dict.ID(100+i)]), r, "strlen"); v != want {
					t.Fatalf("value form %d gave %s, want %s", i, v, want)
				}
			}
		}
		pass()
		full := memoLen(r)
		if full == 0 || full > memoShards {
			t.Fatalf("%d stored, want 1..%d", full, memoShards)
		}
		ran := s.calls.Load()
		pass()
		if m := memoLen(r); m != full {
			t.Fatalf("memo grew from %d to %d after filling", full, m)
		}
		// The stored entries are still served: the second pass ran fn
		// for the calls that found no room, and only for those.
		if again := s.calls.Load() - ran; again != int64(2*n-full) {
			t.Fatalf("second pass ran fn %d times, want %d", again, 2*n-full)
		}
	})
}

// TestMemoStaleStoreDropped drives a blocked call across a reload: the
// old implementation finishes after the memo was cleared, and its
// result must not be served once the new one is marked pure.
func TestMemoStaleStoreDropped(t *testing.T) {
	d := terms{7: expr.String("MKVL")}
	for form, c := range map[string]call{"value": byValue(expr.String("MKVL")), "id": byID(7, d)} {
		t.Run(form, func(t *testing.T) {
			r := NewRegistry()
			entered, release := make(chan struct{}), make(chan struct{})
			v1 := func([]expr.Value) (expr.Value, error) {
				close(entered)
				<-release
				return expr.Float(1), nil
			}
			v2 := func([]expr.Value) (expr.Value, error) { return expr.Float(2), nil }
			if err := r.RegisterDynamic("mod", "f", v1, nil); err != nil {
				t.Fatal(err)
			}
			if err := r.MarkPure("mod.f"); err != nil {
				t.Fatal(err)
			}
			done := make(chan expr.Value)
			go func() {
				v, _, _ := c(r, "mod.f")
				done <- v
			}()
			<-entered
			if err := r.RegisterDynamic("mod", "f", v2, nil); err != nil {
				t.Fatal(err)
			}
			if err := r.MarkPure("mod.f"); err != nil {
				t.Fatal(err)
			}
			close(release)
			if v := <-done; v != expr.Float(1) {
				t.Fatalf("the call that began under v1 returned %s", v)
			}
			if m := memoLen(r); m != 0 {
				t.Fatalf("the v1 result was stored (%d entries) after the reload", m)
			}
			v, _, err := c(r, "mod.f")
			if err != nil || v != expr.Float(2) {
				t.Fatalf("after reload got (%s, %v), want 2", v, err)
			}
		})
	}
}

// TestMemoRaceReload hammers both key forms from 8 callers while one
// goroutine reloads the module and re-marks it pure. Versions only go
// up, so a caller that has seen version v must never see an older one
// again — a stale memo entry would show as exactly that. Run with
// -race.
func TestMemoRaceReload(t *testing.T) {
	const nArgs = 16
	d := terms{}
	for i := 0; i < nArgs; i++ {
		d[dict.ID(1+i)] = expr.Float(float64(i))
	}
	r := NewRegistry()
	load := func(version int) error {
		fn := func(args []expr.Value) (expr.Value, error) {
			return expr.Float(float64(version*nArgs) + args[0].Num), nil
		}
		if err := r.RegisterDynamic("mod", "f", fn, nil); err != nil {
			return err
		}
		return r.MarkPure("mod.f")
	}
	if err := load(0); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		for _, useID := range []bool{false, true} {
			wg.Add(1)
			go func(w int, useID bool) {
				defer wg.Done()
				seen := 0
				for i := w; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					arg := i % nArgs
					c := byValue(expr.Float(float64(arg)))
					if useID {
						c = byID(dict.ID(1+arg), d)
					}
					v, _, err := c(r, "mod.f")
					if err != nil {
						t.Errorf("call: %v", err)
						return
					}
					version := int(v.Num) / nArgs
					if int(v.Num)%nArgs != arg || version < seen {
						t.Errorf("arg %d gave %s after version %d was seen", arg, v, seen)
						return
					}
					seen = version
				}
			}(w, useID)
		}
	}
	for version := 1; version <= 200; version++ {
		if err := load(version); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
