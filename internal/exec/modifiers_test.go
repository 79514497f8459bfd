package exec

import (
	"slices"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
)

// Edge cases of the solution modifiers surfaced by the conformance
// sweep, pinned as table tests: tie-breaking must be deterministic
// (stable sort preserves pre-sort order), OFFSET past the end and
// LIMIT 0 are empty (not errors), and ORDER BY over a variable absent
// from the table is a no-op key, never a crash.

func modTable(vals ...float64) *Table {
	t := NewTable("v", "tag")
	for i, v := range vals {
		tag := "a"
		if i%2 == 1 {
			tag = "b"
		}
		t.Append([]expr.Value{expr.Float(v), expr.String(tag)})
	}
	return t
}

func rowStrings(t *Table) [][2]string {
	out := make([][2]string, len(t.Rows))
	for i, r := range t.Rows {
		out[i] = [2]string{r[0].String(), r[1].String()}
	}
	return out
}

func TestSortByTiesAreStable(t *testing.T) {
	// Four rows with equal sort keys: their pre-sort order must
	// survive, run after run.
	tab := NewTable("k", "id")
	for _, id := range []string{"r0", "r1", "r2", "r3"} {
		tab.Append([]expr.Value{expr.Float(7), expr.String(id)})
	}
	tab.SortBy([]SortKey{{Var: "k"}}, nil)
	for i, want := range []string{"r0", "r1", "r2", "r3"} {
		if got := tab.Rows[i][1].Str; got != want {
			t.Fatalf("tie order not stable: row %d = %s, want %s", i, got, want)
		}
	}
}

func TestSortByUnboundVariableIsNoop(t *testing.T) {
	tab := modTable(3, 1, 2)
	before := rowStrings(tab)
	// ?nosuch is not a column: the key must be skipped without
	// reordering or panicking.
	tab.SortBy([]SortKey{{Var: "nosuch"}}, nil)
	after := rowStrings(tab)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("ORDER BY unbound variable reordered rows: %v -> %v", before, after)
		}
	}
	// A real secondary key after the unbound primary still applies.
	tab.SortBy([]SortKey{{Var: "nosuch"}, {Var: "v"}}, nil)
	if tab.Rows[0][0].Num != 1 || tab.Rows[2][0].Num != 3 {
		t.Fatalf("secondary key ignored: %v", rowStrings(tab))
	}
}

func TestSliceEdgeCases(t *testing.T) {
	cases := []struct {
		name           string
		n              int // source rows 0..n-1
		offset, limit  int
		wantLen        int
		wantFirstValue float64
	}{
		{"limit zero", 5, 0, 0, 0, 0},
		{"offset at end", 5, 5, -1, 0, 0},
		{"offset past end", 5, 99, -1, 0, 0},
		{"offset past end with limit", 5, 99, 3, 0, 0},
		{"negative offset clamps", 5, -3, 2, 2, 0},
		{"limit past end", 5, 0, 99, 5, 0},
		{"unlimited", 5, 0, -1, 5, 0},
		{"window", 5, 2, 2, 2, 2},
		{"tail", 5, 3, -1, 2, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := NewTable("v")
			for i := 0; i < tc.n; i++ {
				src.Append([]expr.Value{expr.Float(float64(i))})
			}
			got := src.Slice(tc.offset, tc.limit)
			if got.Len() != tc.wantLen {
				t.Fatalf("Slice(%d,%d) len = %d, want %d", tc.offset, tc.limit, got.Len(), tc.wantLen)
			}
			if tc.wantLen > 0 && got.Rows[0][0].Num != tc.wantFirstValue {
				t.Fatalf("Slice(%d,%d) first = %v, want %v", tc.offset, tc.limit, got.Rows[0][0].Num, tc.wantFirstValue)
			}
		})
	}
}

func TestSortThenSliceWindowDeterministic(t *testing.T) {
	// ORDER BY + LIMIT/OFFSET over a table with duplicate keys: the
	// same input always yields the same page (stable sort + slice).
	build := func() *Table {
		tab := NewTable("k", "id")
		for i := 0; i < 12; i++ {
			tab.Append([]expr.Value{expr.Float(float64(i % 3)), expr.String(string(rune('a' + i)))})
		}
		return tab
	}
	var first [][2]string
	for run := 0; run < 3; run++ {
		tab := build()
		tab.SortBy([]SortKey{{Var: "k"}}, nil)
		page := tab.Slice(2, 4)
		got := rowStrings(page)
		if run == 0 {
			first = got
			continue
		}
		for i := range first {
			if first[i] != got[i] {
				t.Fatalf("run %d page diverged: %v vs %v", run, first, got)
			}
		}
	}
}

// TestSortByTotalOrder pins the ORDER BY total order over cells that
// are dictionary IDs assigned out of value order — the order the IDs
// were handed out in must not show: unbound first, then numbers by
// value, then text, then booleans; DESC is the exact reverse.
func TestSortByTotalOrder(t *testing.T) {
	d := dict.New()
	var ids []expr.Value
	for _, lit := range []string{"93", "5", "tagB", "13", "0.5", "tagA"} {
		ids = append(ids, expr.IDVal(d.Encode(dict.Term{Kind: dict.Literal, Value: lit})))
	}
	iri := expr.IDVal(d.Encode(dict.Term{Kind: dict.IRI, Value: "http://x/e1"}))
	cells := append(ids, iri, expr.Null, expr.Bool(true), expr.Float(7), expr.Bool(false), expr.Null)
	tab := NewTable("k")
	for _, c := range cells {
		tab.Append([]expr.Value{c})
	}
	res := expr.DictResolver{Dict: d}
	show := func() []string {
		out := make([]string, len(tab.Rows))
		for i, r := range tab.Rows {
			v := r[0]
			if v.Kind == expr.KindID {
				v = res.ResolveID(v.ID)
			}
			out[i] = v.String()
		}
		return out
	}
	want := []string{"null", "null", "0.5", "5", "7", "13", "93", `"http://x/e1"`, `"tagA"`, `"tagB"`, "false", "true"}
	tab.SortBy([]SortKey{{Var: "k"}}, res)
	if got := show(); !slices.Equal(got, want) {
		t.Fatalf("ascending:\n got  %v\n want %v", got, want)
	}
	slices.Reverse(want)
	tab.SortBy([]SortKey{{Var: "k", Desc: true}}, res)
	if got := show(); !slices.Equal(got, want) {
		t.Fatalf("descending:\n got  %v\n want %v", got, want)
	}
}
