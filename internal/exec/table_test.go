package exec

import (
	"fmt"
	"testing"

	"ids/internal/expr"
)

func row(vals ...expr.Value) []expr.Value { return vals }

func TestTableColAndAppend(t *testing.T) {
	tab := NewTable("a", "b")
	if tab.Col("a") != 0 || tab.Col("b") != 1 || tab.Col("c") != -1 {
		t.Fatal("Col wrong")
	}
	tab.Append(row(expr.Float(1), expr.Float(2)))
	if tab.Len() != 1 {
		t.Fatal("Append failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("width-mismatched Append did not panic")
		}
	}()
	tab.Append(row(expr.Float(1)))
}

func TestProject(t *testing.T) {
	tab := NewTable("a", "b", "c")
	tab.Append(row(expr.Float(1), expr.Float(2), expr.Float(3)))
	out, err := tab.Project([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Vars) != 2 || out.Vars[0] != "c" {
		t.Fatalf("Vars = %v", out.Vars)
	}
	if out.Rows[0][0].Num != 3 || out.Rows[0][1].Num != 1 {
		t.Fatalf("row = %v", out.Rows[0])
	}
	// SELECT * passthrough.
	same, err := tab.Project(nil)
	if err != nil || same != tab {
		t.Fatal("empty projection should return the table itself")
	}
	if _, err := tab.Project([]string{"zz"}); err == nil {
		t.Fatal("unknown var accepted")
	}
}

func TestDistinct(t *testing.T) {
	tab := NewTable("a")
	tab.Append(row(expr.Float(1)))
	tab.Append(row(expr.Float(2)))
	tab.Append(row(expr.Float(1)))
	tab.Append(row(expr.String("1"))) // different kind, not a dup
	out := tab
	tab.Distinct(NewArena())
	if out.Len() != 3 {
		t.Fatalf("distinct = %d rows, want 3", out.Len())
	}
	if out.Rows[0][0].Num != 1 || out.Rows[1][0].Num != 2 {
		t.Fatal("order not preserved")
	}
}

func TestSortBy(t *testing.T) {
	tab := NewTable("x", "y")
	tab.Append(row(expr.Float(2), expr.String("b")))
	tab.Append(row(expr.Float(1), expr.String("c")))
	tab.Append(row(expr.Float(2), expr.String("a")))
	tab.SortBy([]SortKey{{Var: "x"}, {Var: "y", Desc: true}}, nil)
	if tab.Rows[0][0].Num != 1 {
		t.Fatalf("sort primary failed: %v", tab.Rows)
	}
	if tab.Rows[1][1].Str != "b" || tab.Rows[2][1].Str != "a" {
		t.Fatalf("sort secondary desc failed: %v", tab.Rows)
	}
	// Unknown key: stable no-op.
	tab.SortBy([]SortKey{{Var: "nope"}}, nil)
	if tab.Rows[0][0].Num != 1 {
		t.Fatal("unknown sort key shuffled rows")
	}
	// Empty keys: no-op.
	tab.SortBy(nil, nil)
}

func TestSlice(t *testing.T) {
	tab := NewTable("a")
	for i := 0; i < 10; i++ {
		tab.Append(row(expr.Float(float64(i))))
	}
	out := tab.Slice(2, 3)
	if out.Len() != 3 || out.Rows[0][0].Num != 2 {
		t.Fatalf("Slice(2,3) = %v", out.Rows)
	}
	if got := tab.Slice(0, -1); got.Len() != 10 {
		t.Fatal("unlimited slice truncated")
	}
	if got := tab.Slice(20, 5); got.Len() != 0 {
		t.Fatal("past-end offset returned rows")
	}
	if got := tab.Slice(-5, 2); got.Len() != 2 {
		t.Fatal("negative offset mishandled")
	}
	if got := tab.Slice(8, 10); got.Len() != 2 {
		t.Fatal("limit past end mishandled")
	}
}

func TestRowKeyDistinguishesKinds(t *testing.T) {
	key := func(v expr.Value) string { return string(appendRowKey(nil, row(v))) }
	keys := map[string]bool{key(expr.Float(1)): true, key(expr.String("1")): true,
		key(expr.IDVal(1)): true, key(expr.Bool(true)): true}
	if len(keys) != 4 {
		t.Fatal("rowKey collides across kinds")
	}
}

// Append adds a row; the row length must match the header.
func (t *Table) Append(row []expr.Value) {
	if len(row) != len(t.Vars) {
		panic(fmt.Sprintf("exec: row width %d != header width %d", len(row), len(t.Vars)))
	}
	t.Rows = append(t.Rows, row)
}
