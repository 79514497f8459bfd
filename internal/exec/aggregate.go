package exec

import (
	"fmt"
	"math"

	"ids/internal/expr"
)

// AggSpec is one aggregate of a grouped query.
type AggSpec struct {
	Func string // "count", "sum", "avg", "min", "max"
	Var  string // aggregated variable; empty means * (count only)
	As   string // output column name
}

// Aggregate groups the (gathered) table by the groupBy columns and
// computes the aggregates per group, returning a table with columns
// groupBy... followed by each aggregate's As name. With no groupBy
// columns the whole input forms one group. Numeric aggregates resolve
// values through res and skip non-numeric bindings; COUNT(?v) counts
// non-null bindings; COUNT(*) counts rows. Group order follows first
// appearance, keeping results deterministic.
func Aggregate(t *Table, groupBy []string, aggs []AggSpec, res expr.Resolver) (*Table, error) {
	gIdx := make([]int, len(groupBy))
	for i, g := range groupBy {
		c := t.Col(g)
		if c < 0 {
			return nil, fmt.Errorf("exec: GROUP BY unbound variable ?%s", g)
		}
		gIdx[i] = c
	}
	aIdx := make([]int, len(aggs))
	for i, a := range aggs {
		if a.Var == "" {
			if a.Func != "count" {
				return nil, fmt.Errorf("exec: %s(*) is not defined", a.Func)
			}
			aIdx[i] = -1
			continue
		}
		c := t.Col(a.Var)
		if c < 0 {
			return nil, fmt.Errorf("exec: aggregate over unbound variable ?%s", a.Var)
		}
		aIdx[i] = c
	}

	type accum struct {
		key    []expr.Value
		count  []int64
		sum    []float64
		min    []float64
		max    []float64
		numcnt []int64
	}
	newAccum := func(key []expr.Value) *accum {
		a := &accum{
			key:    key,
			count:  make([]int64, len(aggs)),
			sum:    make([]float64, len(aggs)),
			min:    make([]float64, len(aggs)),
			max:    make([]float64, len(aggs)),
			numcnt: make([]int64, len(aggs)),
		}
		for i := range a.min {
			a.min[i] = math.Inf(1)
			a.max[i] = math.Inf(-1)
		}
		return a
	}

	groups := map[string]*accum{}
	var order []*accum
	key := make([]expr.Value, len(gIdx))
	var kbuf []byte
	for _, row := range t.Rows {
		for i, c := range gIdx {
			key[i] = row[c]
		}
		kbuf = appendRowKey(kbuf[:0], key)
		acc, ok := groups[string(kbuf)]
		if !ok {
			acc = newAccum(append([]expr.Value(nil), key...))
			groups[string(kbuf)] = acc
			order = append(order, acc)
		}
		for i, a := range aggs {
			if aIdx[i] < 0 { // COUNT(*)
				acc.count[i]++
				continue
			}
			v := row[aIdx[i]]
			if v.IsNull() {
				continue
			}
			acc.count[i]++
			rv := v
			if rv.Kind == expr.KindID && res != nil {
				rv = res.ResolveID(rv.ID)
			}
			if rv.Kind == expr.KindFloat {
				acc.numcnt[i]++
				acc.sum[i] += rv.Num
				if rv.Num < acc.min[i] {
					acc.min[i] = rv.Num
				}
				if rv.Num > acc.max[i] {
					acc.max[i] = rv.Num
				}
			}
			_ = a
		}
	}

	outVars := append([]string{}, groupBy...)
	for _, a := range aggs {
		outVars = append(outVars, a.As)
	}
	out := NewTable(outVars...)
	for _, acc := range order {
		row := make([]expr.Value, 0, len(outVars))
		row = append(row, acc.key...)
		for i, a := range aggs {
			switch a.Func {
			case "count":
				row = append(row, expr.Float(float64(acc.count[i])))
			case "sum":
				row = append(row, expr.Float(acc.sum[i]))
			case "avg":
				if acc.numcnt[i] == 0 {
					row = append(row, expr.Null)
				} else {
					row = append(row, expr.Float(acc.sum[i]/float64(acc.numcnt[i])))
				}
			case "min":
				if acc.numcnt[i] == 0 {
					row = append(row, expr.Null)
				} else {
					row = append(row, expr.Float(acc.min[i]))
				}
			case "max":
				if acc.numcnt[i] == 0 {
					row = append(row, expr.Null)
				} else {
					row = append(row, expr.Float(acc.max[i]))
				}
			default:
				return nil, fmt.Errorf("exec: unknown aggregate %q", a.Func)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	// An aggregate over an empty, ungrouped input still yields one row
	// (COUNT and SUM of nothing are 0), per SQL/SPARQL convention.
	if len(out.Rows) == 0 && len(groupBy) == 0 {
		row := make([]expr.Value, 0, len(aggs))
		for _, a := range aggs {
			if a.Func == "count" || a.Func == "sum" {
				row = append(row, expr.Float(0))
			} else {
				row = append(row, expr.Null)
			}
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}
