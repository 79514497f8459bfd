package exec

import (
	"ids/internal/dict"
	"ids/internal/mpp"
	"ids/internal/sparql"
)

// VALUES access-path operators: an inline data block becomes a small
// solution table, partitioned round-robin across ranks so the global
// table is exactly the block, then hash-joins into the running stream
// like any other access path.

// ResolveValues resolves a VALUES data block against the dictionary:
// UNDEF cells become dict.None, concrete terms their dictionary ID.
// Rows containing a term absent from the dictionary are dropped — an
// unknown term can never match a graph binding, and keeping it would
// force materialized strings into the ID-typed columnar stream. This
// is a documented subset restriction (DESIGN.md §11).
func ResolveValues(vp sparql.ValuesPattern, d *dict.Dict) [][]dict.ID {
	rows := make([][]dict.ID, 0, len(vp.Rows))
	for _, src := range vp.Rows {
		row := make([]dict.ID, len(src))
		ok := true
		for i, c := range src {
			if c.Undef {
				row[i] = dict.None
				continue
			}
			id, found := d.Lookup(c.Term)
			if !found {
				ok = false
				break
			}
			row[i] = id
		}
		if ok {
			rows = append(rows, row)
		}
	}
	return rows
}

// ValuesBatch builds this rank's partition of a resolved VALUES block
// as arena-backed ID columns: row i of the block goes to rank
// i % size, and dict.None cells (UNDEF) stay unbound.
func ValuesBatch(r *mpp.Rank, a *Arena, vars []string, rows [][]dict.ID) *Batch {
	rank, size := r.ID(), r.Size()
	n := 0
	for i := range rows {
		if i%size == rank {
			n++
		}
	}
	cols := make([][]dict.ID, len(vars))
	for j := range cols {
		cols[j] = a.AllocIDs(n)
	}
	k := 0
	for i, row := range rows {
		if i%size != rank {
			continue
		}
		for j, id := range row {
			cols[j][k] = id
		}
		k++
	}
	r.Charge(float64(n) * scanCostPerTriple)
	return &Batch{Vars: append([]string{}, vars...), Cols: cols, NRows: n}
}
