package exec

import (
	"slices"
	"testing"
	"testing/quick"

	"ids/internal/expr"
)

func aggTable(groups []uint8, vals []int16) *Table {
	t := NewTable("g", "v")
	n := len(groups)
	if len(vals) < n {
		n = len(vals)
	}
	for i := 0; i < n; i++ {
		t.Append([]expr.Value{
			expr.String(string(rune('a' + groups[i]%5))),
			expr.Float(float64(vals[i])),
		})
	}
	return t
}

func TestAggregateBasics(t *testing.T) {
	tab := NewTable("g", "v")
	tab.Append([]expr.Value{expr.String("a"), expr.Float(1)})
	tab.Append([]expr.Value{expr.String("a"), expr.Float(3)})
	tab.Append([]expr.Value{expr.String("b"), expr.Float(5)})
	out, err := Aggregate(tab, []string{"g"}, []AggSpec{
		{Func: "count", As: "n"},
		{Func: "sum", Var: "v", As: "s"},
		{Func: "avg", Var: "v", As: "m"},
		{Func: "min", Var: "v", As: "lo"},
		{Func: "max", Var: "v", As: "hi"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("groups = %d", len(out.Rows))
	}
	// First-appearance order: group "a" first.
	a := out.Rows[0]
	if a[0].Str != "a" || a[1].Num != 2 || a[2].Num != 4 || a[3].Num != 2 || a[4].Num != 1 || a[5].Num != 3 {
		t.Fatalf("group a = %v", a)
	}
}

func TestAggregateNullHandling(t *testing.T) {
	tab := NewTable("v")
	tab.Append([]expr.Value{expr.Float(2)})
	tab.Append([]expr.Value{expr.Null})
	out, err := Aggregate(tab, nil, []AggSpec{
		{Func: "count", As: "all"}, // COUNT(*) would need Var "";
		{Func: "count", Var: "v", As: "nonnull"},
		{Func: "avg", Var: "v", As: "m"},
	}, nil)
	if err == nil {
		// First spec has Var "" and func count -> COUNT(*).
		row := out.Rows[0]
		if row[0].Num != 2 || row[1].Num != 1 || row[2].Num != 2 {
			t.Fatalf("row = %v", row)
		}
		return
	}
	t.Fatal(err)
}

// TestAggregateOfNothing: an ungrouped aggregate over zero rows still
// yields one row, with COUNT and SUM at 0 and the rest unbound; a
// grouped one yields no rows.
func TestAggregateOfNothing(t *testing.T) {
	aggs := []AggSpec{
		{Func: "count", As: "all"},
		{Func: "count", Var: "v", As: "n"},
		{Func: "sum", Var: "v", As: "s"},
		{Func: "avg", Var: "v", As: "m"},
		{Func: "min", Var: "v", As: "lo"},
		{Func: "max", Var: "v", As: "hi"},
	}
	out, err := Aggregate(NewTable("g", "v"), nil, aggs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []expr.Value{expr.Float(0), expr.Float(0), expr.Float(0), expr.Null, expr.Null, expr.Null}
	if len(out.Rows) != 1 || !slices.Equal(out.Rows[0], want) {
		t.Fatalf("rows = %v, want [%v]", out.Rows, want)
	}
	out, err = Aggregate(NewTable("g", "v"), []string{"g"}, aggs, nil)
	if err != nil || len(out.Rows) != 0 {
		t.Fatalf("grouped rows = %v, %v; want none", out.Rows, err)
	}
}

func TestAggregateErrors(t *testing.T) {
	tab := NewTable("v")
	if _, err := Aggregate(tab, []string{"ghost"}, []AggSpec{{Func: "count", As: "n"}}, nil); err == nil {
		t.Fatal("unknown group var accepted")
	}
	if _, err := Aggregate(tab, nil, []AggSpec{{Func: "sum", As: "n"}}, nil); err == nil {
		t.Fatal("SUM(*) accepted")
	}
	if _, err := Aggregate(tab, nil, []AggSpec{{Func: "count", Var: "ghost", As: "n"}}, nil); err == nil {
		t.Fatal("unknown aggregate var accepted")
	}
	withData := NewTable("v")
	withData.Append([]expr.Value{expr.Float(1)})
	if _, err := Aggregate(withData, nil, []AggSpec{{Func: "median", Var: "v", As: "n"}}, nil); err == nil {
		t.Fatal("unknown aggregate function accepted")
	}
}

func TestAggregateEmptyUngrouped(t *testing.T) {
	tab := NewTable("v")
	out, err := Aggregate(tab, nil, []AggSpec{
		{Func: "count", As: "n"},
		{Func: "max", Var: "v", As: "hi"},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0].Num != 0 || !out.Rows[0][1].IsNull() {
		t.Fatalf("empty aggregate = %v", out.Rows)
	}
}

// Properties: group counts sum to the row count; per-group min <= avg
// <= max; sum of group sums equals the total sum.
func TestAggregateConservationProperty(t *testing.T) {
	f := func(groups []uint8, vals []int16) bool {
		tab := aggTable(groups, vals)
		out, err := Aggregate(tab, []string{"g"}, []AggSpec{
			{Func: "count", As: "n"},
			{Func: "sum", Var: "v", As: "s"},
			{Func: "avg", Var: "v", As: "m"},
			{Func: "min", Var: "v", As: "lo"},
			{Func: "max", Var: "v", As: "hi"},
		}, nil)
		if err != nil {
			return false
		}
		totalRows, totalSum := 0.0, 0.0
		for _, row := range tab.Rows {
			totalRows++
			totalSum += row[1].Num
		}
		gotRows, gotSum := 0.0, 0.0
		for _, row := range out.Rows {
			n, s, m, lo, hi := row[1].Num, row[2].Num, row[3], row[4], row[5]
			gotRows += n
			gotSum += s
			if n > 0 {
				if m.IsNull() || lo.IsNull() || hi.IsNull() {
					return false
				}
				if lo.Num > m.Num+1e-9 || m.Num > hi.Num+1e-9 {
					return false
				}
			}
		}
		return gotRows == totalRows && gotSum == totalSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
