// Package exec implements the physical query operators of the IDS
// engine, executed rank-parallel on the mpp runtime: shard scans,
// distributed hash joins, FILTER evaluation with profiling-driven
// expression reordering (paper §2.4.3), solution re-balancing between
// operators (paper §2.4.2), and the output operators (project,
// distinct, order, limit, gather).
package exec

import (
	"fmt"
	"sort"

	"ids/internal/expr"
)

// Table is a set of solutions: rows of values positioned by the Vars
// header. Each rank holds its own partition of the logical table.
type Table struct {
	Vars []string
	Rows [][]expr.Value
}

// NewTable returns an empty table with the given header.
func NewTable(vars ...string) *Table {
	return &Table{Vars: vars}
}

// Col returns the column index of the named variable, or -1.
func (t *Table) Col(name string) int {
	for i, v := range t.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Len returns the local row count.
func (t *Table) Len() int { return len(t.Rows) }

// Append adds a row; the row length must match the header.
func (t *Table) Append(row []expr.Value) {
	if len(row) != len(t.Vars) {
		panic(fmt.Sprintf("exec: row width %d != header width %d", len(row), len(t.Vars)))
	}
	t.Rows = append(t.Rows, row)
}

// rowEnv adapts one row to expr.Env.
type rowEnv struct {
	cols map[string]int
	row  []expr.Value
}

func (e rowEnv) Lookup(name string) (expr.Value, bool) {
	i, ok := e.cols[name]
	if !ok {
		return expr.Null, false
	}
	return e.row[i], true
}

// colIndex builds the name->index map once per operator invocation.
func (t *Table) colIndex() map[string]int {
	m := make(map[string]int, len(t.Vars))
	for i, v := range t.Vars {
		m[v] = i
	}
	return m
}

// Project returns a table with only the named columns, in order — the
// receiver itself when that is every column in place. Unknown names
// produce an error.
func (t *Table) Project(names []string) (*Table, error) {
	if len(names) == 0 {
		return t, nil // SELECT *
	}
	idx := make([]int, len(names))
	identity := len(names) == len(t.Vars)
	for i, n := range names {
		c := t.Col(n)
		if c < 0 {
			return nil, fmt.Errorf("exec: projection of unbound variable ?%s", n)
		}
		idx[i] = c
		identity = identity && c == i
	}
	if identity {
		return t, nil
	}
	out := NewTable(names...)
	out.Rows = make([][]expr.Value, len(t.Rows))
	// One backing array for every projected cell, as Batch.Materialize
	// lays a result out; the capped row slices cannot grow into each
	// other.
	w := len(idx)
	cells := make([]expr.Value, len(t.Rows)*w)
	for r, row := range t.Rows {
		nr := cells[r*w : (r+1)*w : (r+1)*w]
		for i, c := range idx {
			nr[i] = row[c]
		}
		out.Rows[r] = nr
	}
	return out, nil
}

// rowKey serializes a row for hashing/dedup.
func rowKey(row []expr.Value) string {
	// Values are small; fmt-based keys are adequate for the engine's
	// dedup and join paths and keep the code simple.
	key := make([]byte, 0, len(row)*12)
	for _, v := range row {
		key = append(key, byte(v.Kind))
		switch v.Kind {
		case expr.KindID:
			key = appendUint(key, uint64(v.ID))
		case expr.KindFloat:
			key = append(key, []byte(fmt.Sprintf("%g", v.Num))...)
		case expr.KindString:
			key = append(key, []byte(v.Str)...)
		case expr.KindBool:
			if v.Bool {
				key = append(key, 1)
			} else {
				key = append(key, 0)
			}
		}
		key = append(key, 0xff)
	}
	return string(key)
}

func appendUint(b []byte, u uint64) []byte {
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// DistinctLocal removes duplicate rows within this rank's partition,
// preserving first-seen order.
func (t *Table) DistinctLocal() *Table {
	seen := make(map[string]bool, len(t.Rows))
	out := NewTable(t.Vars...)
	for _, row := range t.Rows {
		k := rowKey(row)
		if !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// SortBy sorts rows by the given keys (variable name + direction).
// Values compare with expr.Compare under the resolver; incomparable
// pairs keep their relative order.
func (t *Table) SortBy(keys []SortKey, res expr.Resolver) {
	if len(keys) == 0 {
		return
	}
	idx := make([]int, len(keys))
	for i, k := range keys {
		idx[i] = t.Col(k.Var)
	}
	sort.SliceStable(t.Rows, func(a, b int) bool {
		for i, k := range keys {
			c := idx[i]
			if c < 0 {
				continue
			}
			cmp, ok := expr.Compare(t.Rows[a][c], t.Rows[b][c], res)
			if !ok || cmp == 0 {
				continue
			}
			if k.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}

// SortKey is one ordering key.
type SortKey struct {
	Var  string
	Desc bool
}

// Slice applies OFFSET/LIMIT semantics (limit < 0 means unlimited).
func (t *Table) Slice(offset, limit int) *Table {
	out := NewTable(t.Vars...)
	if offset < 0 {
		offset = 0
	}
	if offset >= len(t.Rows) {
		return out
	}
	rows := t.Rows[offset:]
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	out.Rows = rows
	return out
}
