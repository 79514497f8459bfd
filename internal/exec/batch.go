package exec

import (
	"fmt"

	"ids/internal/dict"
	"ids/internal/expr"
)

// Batch is the columnar solution set flowing through the pre-gather
// pipeline: one dict.ID vector per variable, positionally aligned.
// Everything before the gather boundary is dictionary-encoded — scans
// bind raw IDs, joins compare IDs, and FILTER expressions resolve IDs
// lazily through the resolver — so the hot path never boxes values.
// dict.None (never assigned to a term) marks an unbound cell (OPTIONAL
// null-extension, UNDEF); Materialize maps it to expr.Null.
//
// NRows is explicit so zero-width batches (patterns with no variables)
// still carry their multiplicity through joins.
type Batch struct {
	Vars  []string
	Cols  [][]dict.ID
	NRows int
}

// NewBatch returns an empty batch with the given header.
func NewBatch(vars ...string) *Batch {
	return &Batch{Vars: vars, Cols: make([][]dict.ID, len(vars))}
}

// Len returns the local row count.
func (b *Batch) Len() int { return b.NRows }

// Col returns the column index of the named variable, or -1.
func (b *Batch) Col(name string) int {
	for i, v := range b.Vars {
		if v == name {
			return i
		}
	}
	return -1
}

// Project returns a batch with only the named columns, in order —
// a pointer permutation, zero copies. Unknown names error.
func (b *Batch) Project(names []string) (*Batch, error) {
	if len(names) == 0 {
		return b, nil // SELECT *
	}
	out := &Batch{Vars: names, Cols: make([][]dict.ID, len(names)), NRows: b.NRows}
	for i, n := range names {
		c := b.Col(n)
		if c < 0 {
			return nil, fmt.Errorf("exec: projection of unbound variable ?%s", n)
		}
		out.Cols[i] = b.Cols[c]
	}
	return out, nil
}

// Materialize converts the batch to a row table at the late-
// materialization boundary (gather). All cells of all rows share one
// backing array, so the whole result is three heap objects (cells,
// row headers, table).
func (b *Batch) Materialize() *Table {
	t := &Table{Vars: b.Vars}
	n, w := b.NRows, len(b.Vars)
	if n == 0 {
		return t
	}
	cells := make([]expr.Value, n*w)
	t.Rows = make([][]expr.Value, n)
	for i := 0; i < n; i++ {
		row := cells[i*w : (i+1)*w : (i+1)*w]
		for j, col := range b.Cols {
			if id := col[i]; id != dict.None {
				row[j] = expr.IDVal(id)
			} else {
				row[j] = expr.Null
			}
		}
		t.Rows[i] = row
	}
	return t
}

// FNV-1a constants (hash/fnv, inlined so key hashing never allocates).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(u>>(8*i)))
	}
	return h
}

// hashBatchRow streams row i's key-column IDs through FNV-1a,
// producing the 64-bit join key with zero allocations.
func hashBatchRow(cols [][]dict.ID, keyIdx []int, i int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range keyIdx {
		h = fnvUint64(h, uint64(cols[c][i]))
		h = fnvByte(h, 0xfe)
	}
	return h
}

// batchKeyEqual reports whether row ai of a and row bi of b agree on
// their key columns — the collision guard behind hashed lookups.
func batchKeyEqual(a [][]dict.ID, aIdx []int, ai int, b [][]dict.ID, bIdx []int, bi int) bool {
	for k := range aIdx {
		if a[aIdx[k]][ai] != b[bIdx[k]][bi] {
			return false
		}
	}
	return true
}

// gatherBatch builds a batch by gathering the selected rows of src
// column-wise into arena-backed vectors. keep[i] is the src row for
// output row i.
func gatherBatch(a *Arena, src *Batch, keep []int32) *Batch {
	out := &Batch{Vars: src.Vars, Cols: make([][]dict.ID, len(src.Vars)), NRows: len(keep)}
	for j, col := range src.Cols {
		dst := a.AllocIDs(len(keep))
		for i, r := range keep {
			dst[i] = col[r]
		}
		out.Cols[j] = dst
	}
	return out
}

// batchChunk is the wire format of a batch exchange: column slices
// plus an explicit row count (columns may be empty for zero-width
// batches). Chunks reference arena memory of the sending rank; the
// collectives' trailing barriers plus the engine's end-of-world arena
// recycling guarantee the memory outlives every reader.
type batchChunk struct {
	cols [][]dict.ID
	n    int
}

func chunkRows(c batchChunk) int { return c.n }

// sliceChunk views rows [lo, hi) of b as a chunk, zero-copy.
func sliceChunk(a *Arena, b *Batch, lo, hi int) batchChunk {
	cols := a.AllocCols(len(b.Cols))
	for i, col := range b.Cols {
		cols[i] = col[lo:hi:hi]
	}
	return batchChunk{cols: cols, n: hi - lo}
}

// selChunk builds a chunk from selected rows, arena-backed.
func selChunk(a *Arena, b *Batch, sel []int32) batchChunk {
	cols := a.AllocCols(len(b.Cols))
	for j, col := range b.Cols {
		dst := a.AllocIDs(len(sel))
		for i, r := range sel {
			dst[i] = col[r]
		}
		cols[j] = dst
	}
	return batchChunk{cols: cols, n: len(sel)}
}

// concatChunks concatenates received chunks (all with b's width) into
// one arena-backed batch with the given header.
func concatChunks(a *Arena, vars []string, chunks []batchChunk) *Batch {
	total := 0
	for _, c := range chunks {
		total += c.n
	}
	out := &Batch{Vars: vars, Cols: make([][]dict.ID, len(vars)), NRows: total}
	for j := range vars {
		dst := a.AllocIDs(total)
		off := 0
		for _, c := range chunks {
			if c.n == 0 {
				continue
			}
			copy(dst[off:off+c.n], c.cols[j])
			off += c.n
		}
		out.Cols[j] = dst
	}
	return out
}
