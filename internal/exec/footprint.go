package exec

import (
	"unsafe"

	"ids/internal/expr"
)

// Operator-local memory accounting for the query cost observatory.
//
// Go has no per-goroutine allocation counters, so operators account the
// memory they *materialize* — the tables and build structures that
// dominate a query's footprint — and the engine cross-checks the sum
// against the process-wide runtime/metrics delta bracketing the query.
// The estimates here are deliberately conservative (they skip map
// internals, string bodies, and transient per-row garbage), preserving
// the invariant 0 < sum(op footprints) <= physical delta documented in
// internal/obs/resources.go and DESIGN.md §6.

// valueSize is the in-memory size of one expr.Value cell.
const valueSize = int64(unsafe.Sizeof(expr.Value{}))

// sliceHeaderSize is the size of a slice header (one per row, plus one
// for Rows itself).
const sliceHeaderSize = int64(unsafe.Sizeof([]expr.Value{}))

// Footprint returns the accounted heap footprint of a freshly
// materialized table: Rows' backing array plus one cell array per row.
// Use this for operators that build new rows (bind, aggregate).
func (t *Table) Footprint() (bytes, mallocs int64) {
	if t == nil {
		return 0, 0
	}
	n := int64(len(t.Rows))
	w := int64(len(t.Vars))
	bytes = sliceHeaderSize * n // Rows backing array
	bytes += n * w * valueSize  // one cell array per row
	mallocs = n + 1
	return bytes, mallocs
}

// MaterializeFootprint returns the accounted footprint of Batch.
// Materialize's output: the table struct itself, plus (for non-empty
// batches) one shared cell backing array and one row-header array.
// These are always genuinely fresh heap objects — result rows escape
// to the caller and can never live in an arena — which is what keeps
// the op-accounted ledger strictly positive on the columnar path.
func (b *Batch) MaterializeFootprint() (bytes, mallocs int64) {
	bytes = 2 * sliceHeaderSize // Table struct: Vars + Rows headers
	mallocs = 1
	if b.NRows > 0 {
		n, w := int64(b.NRows), int64(len(b.Vars))
		bytes += n*w*valueSize + n*sliceHeaderSize
		mallocs += 2 // cells array + row-header array
	}
	return bytes, mallocs
}
