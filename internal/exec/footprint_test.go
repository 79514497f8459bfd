package exec

import (
	"testing"

	"ids/internal/expr"
)

func footprintTable(rows, cols int) *Table {
	vars := make([]string, cols)
	for i := range vars {
		vars[i] = string(rune('a' + i))
	}
	t := NewTable(vars...)
	for r := 0; r < rows; r++ {
		row := make([]expr.Value, cols)
		t.Append(row)
	}
	return t
}

func TestFootprintScalesWithRowsAndWidth(t *testing.T) {
	small, smallM := footprintTable(10, 2).Footprint()
	big, bigM := footprintTable(100, 2).Footprint()
	wide, _ := footprintTable(10, 4).Footprint()
	if small <= 0 || smallM != 11 {
		t.Fatalf("10x2 footprint = (%d, %d), want positive bytes and 11 mallocs", small, smallM)
	}
	if big != small*10 || bigM != 101 {
		t.Errorf("footprint not linear in rows: 10 rows %d, 100 rows %d", small, big)
	}
	if wide <= small {
		t.Errorf("wider rows should cost more: 2 cols %d, 4 cols %d", small, wide)
	}
}

func TestFootprintNilAndEmpty(t *testing.T) {
	var nilT *Table
	if b, m := nilT.Footprint(); b != 0 || m != 0 {
		t.Errorf("nil Footprint = (%d, %d)", b, m)
	}
	empty := NewTable("a")
	if b, m := empty.Footprint(); b != 0 || m != 1 {
		t.Errorf("empty Footprint = (%d, %d), want (0, 1)", b, m)
	}
}
