// Package exec implements the physical query operators of the IDS
// engine, executed rank-parallel on the mpp runtime: shard scans,
// distributed hash joins, FILTER evaluation with profiling-driven
// expression reordering (paper §2.4.3), solution re-balancing between
// operators (paper §2.4.2), and the output operators (project,
// distinct, order, limit, gather).
package exec

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

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

// appendRowKey appends a row's dedup/grouping key to key. Callers look
// rows up with m[string(key)], which does not allocate; only storing a
// new key does.
func appendRowKey(key []byte, row []expr.Value) []byte {
	for _, v := range row {
		key = append(key, byte(v.Kind))
		switch v.Kind {
		case expr.KindID:
			key = appendUint(key, uint64(v.ID))
		case expr.KindFloat:
			key = strconv.AppendFloat(key, v.Num, 'g', -1, 64)
		case expr.KindString:
			key = append(key, v.Str...)
		case expr.KindBool:
			if v.Bool {
				key = append(key, 1)
			} else {
				key = append(key, 0)
			}
		}
		key = append(key, 0xff)
	}
	return key
}

func appendUint(b []byte, u uint64) []byte {
	return append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// Distinct removes duplicate rows in place, keeping each row's first
// occurrence. Like DistinctLocalBatch it chains rows under a hash of
// their key in the arena's reusable build structure and confirms a hit
// by comparing cells, so a warm query de-duplicates its answer without
// allocating: this runs over every DISTINCT result on the serving path.
func (t *Table) Distinct(a *Arena) {
	hb := a.buildFor(len(t.Rows))
	kept := t.Rows[:0]
	var key []byte
rows:
	for _, row := range t.Rows {
		key = appendRowKey(key[:0], row)
		h := uint64(fnvOffset64)
		for _, b := range key {
			h = fnvByte(h, b)
		}
		head := hb.bucket(h)
		for j := *head; j >= 0; j = hb.next[j] {
			if slices.Equal(kept[j], row) {
				continue rows
			}
		}
		hb.next[len(kept)], *head = *head, int32(len(kept))
		kept = append(kept, row)
	}
	t.Rows = kept
}

// orderClass ranks the kinds of the ORDER BY total order (DESIGN.md
// §9): unbound first, then numbers, then text, then booleans.
func orderClass(v expr.Value) int {
	switch v.Kind {
	case expr.KindFloat:
		return 1
	case expr.KindString:
		return 2
	case expr.KindBool:
		return 3
	}
	return 0
}

// orderCompare is the ORDER BY total order over two cells: by class,
// then numbers by value (NaN before every other number), text by
// lexical value (an IRI's address, a literal's body), false before
// true. Terms compare by what they decode to, never by ID; a term the
// resolver does not know sorts as unbound.
func orderCompare(a, b expr.Value, res expr.Resolver) int {
	if a.Kind == expr.KindID && b.Kind == expr.KindID && a.ID == b.ID {
		return 0
	}
	if a.Kind == expr.KindID && res != nil {
		a = res.ResolveID(a.ID)
	}
	if b.Kind == expr.KindID && res != nil {
		b = res.ResolveID(b.ID)
	}
	if ca, cb := orderClass(a), orderClass(b); ca != cb {
		return ca - cb
	}
	switch a.Kind {
	case expr.KindFloat:
		an, bn := math.IsNaN(a.Num), math.IsNaN(b.Num)
		switch {
		case an || bn:
			return boolToInt(bn) - boolToInt(an)
		case a.Num < b.Num:
			return -1
		case a.Num > b.Num:
			return 1
		}
	case expr.KindString:
		return strings.Compare(a.Str, b.Str)
	case expr.KindBool:
		return boolToInt(a.Bool) - boolToInt(b.Bool)
	}
	return 0
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// SortBy stably sorts rows by the given keys (variable name +
// direction) under orderCompare; rows equal on every key keep their
// relative order.
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
			d := orderCompare(t.Rows[a][c], t.Rows[b][c], res)
			if d == 0 {
				continue
			}
			if k.Desc {
				return d > 0
			}
			return d < 0
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
