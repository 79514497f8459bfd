package exec

import (
	"math"

	"ids/internal/expr"
	"ids/internal/mpp"
)

// joinCostPerRow is the modeled hash-join cost per probed row.
const joinCostPerRow = 1e-7

// sharedVars returns the variables common to both headers.
func sharedVars(a, b *Table) []string {
	var out []string
	for _, v := range a.Vars {
		if b.Col(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
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

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// hashRowKey streams the shared-variable values of a row through
// FNV-1a, producing the 64-bit join key with zero allocations (the
// former implementation built a string key per row). Floats hash by
// bit pattern; keyEqual applies the matching equality.
func hashRowKey(row []expr.Value, idx []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range idx {
		v := row[c]
		h = fnvByte(h, byte(v.Kind))
		switch v.Kind {
		case expr.KindID:
			h = fnvUint64(h, uint64(v.ID))
		case expr.KindFloat:
			h = fnvUint64(h, math.Float64bits(v.Num))
		case expr.KindString:
			h = fnvString(h, v.Str)
		case expr.KindBool:
			if v.Bool {
				h = fnvByte(h, 1)
			}
		}
		h = fnvByte(h, 0xfe)
	}
	return h
}

// keyEqual reports whether two rows agree on their join-key columns —
// the collision guard behind the hashed bucket map.
func keyEqual(a []expr.Value, ai []int, b []expr.Value, bi []int) bool {
	for k := range ai {
		va, vb := a[ai[k]], b[bi[k]]
		if va.Kind != vb.Kind {
			return false
		}
		switch va.Kind {
		case expr.KindID:
			if va.ID != vb.ID {
				return false
			}
		case expr.KindFloat:
			if math.Float64bits(va.Num) != math.Float64bits(vb.Num) {
				return false
			}
		case expr.KindString:
			if va.Str != vb.Str {
				return false
			}
		case expr.KindBool:
			if va.Bool != vb.Bool {
				return false
			}
		}
	}
	return true
}

// buildSide is the hash table of a join's build side: rows bucketed by
// hashed key, with keyEqual guarding hash collisions on probe.
type buildSide struct {
	buckets map[uint64][][]expr.Value
	idx     []int
}

func buildRows(parts [][][]expr.Value, idx []int) buildSide {
	b := buildSide{buckets: map[uint64][][]expr.Value{}, idx: idx}
	for _, part := range parts {
		for _, row := range part {
			k := hashRowKey(row, idx)
			b.buckets[k] = append(b.buckets[k], row)
		}
	}
	return b
}

// matches calls fn for every build row whose key equals probe's.
func (b buildSide) matches(probe []expr.Value, probeIdx []int, fn func(row []expr.Value)) {
	for _, row := range b.buckets[hashRowKey(probe, probeIdx)] {
		if keyEqual(probe, probeIdx, row, b.idx) {
			fn(row)
		}
	}
}

// partitionByKey routes each row to the rank owning its join key.
func partitionByKey(p int, rows [][]expr.Value, idx []int) [][][]expr.Value {
	out := make([][][]expr.Value, p)
	for _, row := range rows {
		dst := int(hashRowKey(row, idx) % uint64(p))
		out[dst] = append(out[dst], row)
	}
	return out
}

// HashJoin joins the rank-partitioned tables left and right on their
// shared variables: both sides are hash-repartitioned across ranks by
// join key (an AllToAll exchange), then joined locally. With no shared
// variables the right side is replicated and a cross product is
// produced (the planner only does this for small right sides).
func HashJoin(r *mpp.Rank, left, right *Table) (*Table, error) {
	shared := sharedVars(left, right)
	outVars := append([]string{}, left.Vars...)
	for _, v := range right.Vars {
		if left.Col(v) < 0 {
			outVars = append(outVars, v)
		}
	}
	out := NewTable(outVars...)

	if len(shared) == 0 {
		// Cross product with replicated right side.
		allRight, err := mpp.AllGatherSlice(r, right.Rows)
		if err != nil {
			return nil, err
		}
		for _, lrow := range left.Rows {
			for _, part := range allRight {
				for _, rrow := range part {
					out.Rows = append(out.Rows, append(append([]expr.Value{}, lrow...), rrow...))
				}
			}
		}
		r.Charge(float64(len(out.Rows)) * joinCostPerRow)
		return out, nil
	}

	p := r.Size()
	lIdx := make([]int, len(shared))
	rIdx := make([]int, len(shared))
	for i, v := range shared {
		lIdx[i] = left.Col(v)
		rIdx[i] = right.Col(v)
	}

	lParts := partitionByKey(p, left.Rows, lIdx)
	rParts := partitionByKey(p, right.Rows, rIdx)
	lRecv, err := mpp.AllToAll(r, lParts)
	if err != nil {
		return nil, err
	}
	rRecv, err := mpp.AllToAll(r, rParts)
	if err != nil {
		return nil, err
	}

	// Build on the (usually smaller) right side, probe with the left.
	build := buildRows(rRecv, rIdx)
	// Columns of right to append (those not shared).
	var rAppend []int
	for i, v := range right.Vars {
		if left.Col(v) < 0 {
			rAppend = append(rAppend, i)
		}
	}
	probes := 0
	for _, part := range lRecv {
		for _, lrow := range part {
			probes++
			build.matches(lrow, lIdx, func(rrow []expr.Value) {
				row := make([]expr.Value, 0, len(outVars))
				row = append(row, lrow...)
				for _, c := range rAppend {
					row = append(row, rrow[c])
				}
				out.Rows = append(out.Rows, row)
			})
		}
	}
	r.Charge(float64(probes+len(out.Rows)) * joinCostPerRow)
	return out, nil
}

// LeftJoin joins right into left with OPTIONAL semantics: left rows
// without a match survive with null-filled right columns. Both sides
// hash-repartition by the shared variables; with no shared variables
// every left row pairs with every replicated right row, or survives
// null-extended when the right side is globally empty.
func LeftJoin(r *mpp.Rank, left, right *Table) (*Table, error) {
	shared := sharedVars(left, right)
	outVars := append([]string{}, left.Vars...)
	var rAppend []int
	for i, v := range right.Vars {
		if left.Col(v) < 0 {
			outVars = append(outVars, v)
			rAppend = append(rAppend, i)
		}
	}
	out := NewTable(outVars...)
	nullExtend := func(lrow []expr.Value) []expr.Value {
		row := make([]expr.Value, 0, len(outVars))
		row = append(row, lrow...)
		for range rAppend {
			row = append(row, expr.Null)
		}
		return row
	}

	if len(shared) == 0 {
		allRight, err := mpp.AllGatherSlice(r, right.Rows)
		if err != nil {
			return nil, err
		}
		total := 0
		for _, part := range allRight {
			total += len(part)
		}
		for _, lrow := range left.Rows {
			if total == 0 {
				out.Rows = append(out.Rows, nullExtend(lrow))
				continue
			}
			for _, part := range allRight {
				for _, rrow := range part {
					row := append(append([]expr.Value{}, lrow...), rrow...)
					out.Rows = append(out.Rows, row)
				}
			}
		}
		r.Charge(float64(len(out.Rows)) * joinCostPerRow)
		return out, nil
	}

	p := r.Size()
	lIdx := make([]int, len(shared))
	rIdx := make([]int, len(shared))
	for i, v := range shared {
		lIdx[i] = left.Col(v)
		rIdx[i] = right.Col(v)
	}
	lRecv, err := mpp.AllToAll(r, partitionByKey(p, left.Rows, lIdx))
	if err != nil {
		return nil, err
	}
	rRecv, err := mpp.AllToAll(r, partitionByKey(p, right.Rows, rIdx))
	if err != nil {
		return nil, err
	}
	build := buildRows(rRecv, rIdx)
	probes := 0
	for _, part := range lRecv {
		for _, lrow := range part {
			probes++
			matched := false
			build.matches(lrow, lIdx, func(rrow []expr.Value) {
				matched = true
				row := make([]expr.Value, 0, len(outVars))
				row = append(row, lrow...)
				for _, c := range rAppend {
					row = append(row, rrow[c])
				}
				out.Rows = append(out.Rows, row)
			})
			if !matched {
				out.Rows = append(out.Rows, nullExtend(lrow))
			}
		}
	}
	r.Charge(float64(probes+len(out.Rows)) * joinCostPerRow)
	return out, nil
}

// Gather concentrates all rows of the distributed table: the root
// concatenates them once and every rank returns that one table,
// read-only.
func Gather(r *mpp.Rank, t *Table) (*Table, error) {
	return GatherTo(r, t, func(all *Table) (*Table, error) { return all, nil })
}

// GatherTo is Gather with the work that follows the gather folded in:
// finish runs on the root only, on the concatenated table, and every
// rank returns its result (see mpp.GatherRoot).
func GatherTo(r *mpp.Rank, t *Table, finish func(all *Table) (*Table, error)) (*Table, error) {
	return mpp.GatherRoot(r, RootRank, t.Rows, func(rows [][]expr.Value) int { return len(rows) },
		func(parts [][][]expr.Value) (*Table, error) {
			all := NewTable(t.Vars...)
			for _, part := range parts {
				all.Rows = append(all.Rows, part...)
			}
			return finish(all)
		})
}

// DistinctGlobal removes duplicates across ranks: rows are hash-
// partitioned so duplicates meet on one rank, then deduplicated
// locally.
func DistinctGlobal(r *mpp.Rank, t *Table) (*Table, error) {
	p := r.Size()
	idx := make([]int, len(t.Vars))
	for i := range idx {
		idx[i] = i
	}
	parts := partitionByKey(p, t.Rows, idx)
	recv, err := mpp.AllToAll(r, parts)
	if err != nil {
		return nil, err
	}
	merged := NewTable(t.Vars...)
	for _, part := range recv {
		merged.Rows = append(merged.Rows, part...)
	}
	return merged.DistinctLocal(), nil
}
