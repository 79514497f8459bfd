package exec

import (
	"ids/internal/expr"
	"ids/internal/mpp"
)

// BIND runs at the post-gather, late-materialization boundary: computed
// values (floats, strings, booleans) cannot ride in the dictionary-ID
// columnar stream, and per-rank interning would break cross-rank
// exchange determinism. Inside the gather the root holds the full
// solution table (GatherBatchTo), so these row operators run once.

// BindSpec is one BIND(expr AS ?var) computed column.
type BindSpec struct {
	Var  string
	Expr expr.Expr
}

// ApplyBinds appends one computed column per spec, in order, to the
// gathered table; progs[i] is binds[i].Expr compiled for the table's
// columns and those of the binds before it. An evaluation error binds
// null for that row — the W3C rule that an erroring BIND leaves the
// variable unbound while the solution survives. UDF calls are charged
// to the rank clock.
func ApplyBinds(r *mpp.Rank, t *Table, binds []BindSpec, progs []*expr.Prog, res expr.Resolver) *Table {
	f := &expr.Frame{Terms: res}
	for i, b := range binds {
		p := progs[i]
		out := NewTable(append(append(make([]string, 0, len(t.Vars)+1), t.Vars...), b.Var)...)
		out.Rows = make([][]expr.Value, 0, len(t.Rows))
		for _, row := range t.Rows {
			f.Vals, f.Calls = row, f.Calls[:0]
			v, err := p.Eval(f)
			chargeCalls(r, f.Calls)
			if err != nil {
				v = expr.Null
			}
			nr := make([]expr.Value, 0, len(row)+1)
			nr = append(append(nr, row...), v)
			out.Rows = append(out.Rows, nr)
		}
		t = out
	}
	return t
}

// ApplyPostFilters evaluates FILTER expressions that reference bind
// aliases, compiled for the table's layout, dropping rows whose
// effective boolean value errors or is false (standard FILTER
// semantics, applied on the gathered table right after ApplyBinds).
func ApplyPostFilters(r *mpp.Rank, t *Table, progs []*expr.Prog, res expr.Resolver) *Table {
	f := &expr.Frame{Terms: res}
	out := NewTable(t.Vars...)
	for _, row := range t.Rows {
		f.Vals = row
		keep := true
		for _, p := range progs {
			f.Calls = f.Calls[:0]
			v, err := p.Eval(f)
			chargeCalls(r, f.Calls)
			if err != nil || !v.Truthy() {
				keep = false
				break
			}
		}
		if keep {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// chargeCalls charges the rank clock for one row's calls, in order.
func chargeCalls(r *mpp.Rank, calls []expr.CallCost) {
	for _, c := range calls {
		r.Charge(c.Cost)
	}
}
