package exec

import (
	"ids/internal/dict"
	"ids/internal/mpp"
)

// kNN access-path operators. The engine runs the vector-store search
// itself (every rank computes the identical deterministic hit list);
// these operators turn the hit IDs into a solution batch and apply the
// semi-join membership filter.

// knnCostPerVisit is the modeled cost of one distance evaluation
// during graph traversal (a dot product over a few dozen floats plus a
// heap push — an order above a triple scan).
const knnCostPerVisit = 5e-7

// ChargeKNN advances the rank clock by the modeled search cost for
// visited distance evaluations.
func ChargeKNN(r *mpp.Rank, visited int) {
	r.Charge(float64(visited) * knnCostPerVisit)
}

// KNNBatch builds the access-path batch: one arena-backed column
// named varName holding this rank's partition of the hit IDs.
func KNNBatch(a *Arena, varName string, ids []dict.ID) *Batch {
	col := a.AllocIDs(len(ids))
	copy(col, ids)
	return &Batch{Vars: []string{varName}, Cols: [][]dict.ID{col}, NRows: len(ids)}
}

// SemiFilterBatch keeps the rows whose col cell is contained in keep
// (the global top-k set). Unbound cells are dropped — they cannot be
// vector-store keys.
func SemiFilterBatch(a *Arena, b *Batch, col int, keep map[dict.ID]bool) *Batch {
	sel := scratch(a, &a.sel, b.NRows)[:0]
	c := b.Cols[col]
	for i := 0; i < b.NRows; i++ {
		if id := c[i]; id != dict.None && keep[id] {
			sel = append(sel, int32(i))
		}
	}
	out := gatherBatch(a, b, sel)
	saveScratch(a, &a.sel, sel)
	return out
}
