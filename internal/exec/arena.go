package exec

import (
	"sync"
	"unsafe"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/udf"
)

// Arena is a slab bump allocator for dict.ID column vectors (and the
// int32 selection scratch the batch operators use). One arena belongs
// to one rank for the duration of one query; Reset recycles every slab
// for the next query, so a warmed arena serves the whole pre-gather
// pipeline without touching the Go heap.
//
// Fresh-growth accounting: the arena counts the bytes and allocations
// it genuinely adds to the heap (new slabs, scratch growth). Operators
// bracket their work with Fresh() deltas, so the per-operator resource
// ledger only ever reports real allocations — reused slab capacity is
// free, which is exactly what keeps the two-ledger invariant
// 0 < op-accounted <= physical delta true on warm queries (see
// internal/obs/resources.go and DESIGN.md §9).
type Arena struct {
	slabs  [][]dict.ID // every slab owned by the arena, reused across Reset
	active int         // slab currently being bumped
	off    int         // offset into the active slab

	freshBytes   int64
	freshMallocs int64

	// Column-header slabs: small [][]dict.ID slices (chunk and batch
	// column vectors) bump-allocated like ID slabs. Header cells point
	// into this arena's own ID slabs, so they share its lifetime.
	hslabs  [][][]dict.ID
	hactive int
	hoff    int

	// Reusable per-operator scratch. sel/selB hold selection vectors
	// (probe-side / build-side row indexes); both grow amortized and
	// survive Reset.
	sel  []int32
	selB []int32
	// binds holds a probe join's per-match pattern bindings.
	binds [][3]dict.ID
	// parts/chunks are the partition counting-sort counters (and
	// FILTER's call-record bounds) and send chunks (reused once the
	// preceding exchange's trailing barrier guarantees no rank still
	// reads them).
	parts  []int
	chunks []batchChunk
	// build is the reusable hash-join build structure.
	build *hashBuild
	// FILTER scratch (see Filter.Run): the evaluation frame (its call
	// records, argument stack and result slots grow once), the
	// conjuncts' estimates, the rank's conjunct order, the replay's
	// charges and profile records, and a memo probe's keys, key
	// offsets, shard order, shard numbers and answers, by site.
	frame    expr.Frame
	est      []expr.ConjunctStats
	chain    []expr.Expr
	progs    []*expr.Prog
	costs    []float64
	stats    []*udf.Stats
	keys     []byte
	keyAt    []int32
	order    []int32
	shards   []uint8
	hits     []expr.Result
	hitSites [][]expr.Result
}

// arenaSlabIDs is the minimum slab size in IDs (512 KiB per slab).
const arenaSlabIDs = 64 << 10

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Reset recycles all slabs for a new query. Previously returned
// vectors become invalid.
func (a *Arena) Reset() {
	a.active = 0
	a.off = 0
	a.hactive = 0
	a.hoff = 0
}

// Fresh returns the cumulative bytes and allocations the arena has
// added to the heap since creation. Operators record deltas across
// their execution to account only genuinely fresh memory.
func (a *Arena) Fresh() (bytes, mallocs int64) {
	return a.freshBytes, a.freshMallocs
}

// AllocIDs returns an n-element ID vector from the arena. The contents
// are unspecified (callers overwrite every cell).
func (a *Arena) AllocIDs(n int) []dict.ID {
	if n == 0 {
		return nil
	}
	for a.active < len(a.slabs) {
		slab := a.slabs[a.active]
		if a.off+n <= len(slab) {
			out := slab[a.off : a.off+n : a.off+n]
			a.off += n
			return out
		}
		a.active++
		a.off = 0
	}
	size := arenaSlabIDs
	if n > size {
		size = n
	}
	slab := make([]dict.ID, size)
	a.freshBytes += int64(size) * 8
	a.freshMallocs++
	a.slabs = append(a.slabs, slab)
	a.active = len(a.slabs) - 1
	a.off = n
	return slab[0:n:n]
}

// arenaHdrSlabCols is the minimum header slab size in column headers
// (4096 × 24 bytes = 96 KiB per slab).
const arenaHdrSlabCols = 4096

// AllocCols returns an n-element column-header slice from the arena.
func (a *Arena) AllocCols(n int) [][]dict.ID {
	if n == 0 {
		return nil
	}
	for a.hactive < len(a.hslabs) {
		slab := a.hslabs[a.hactive]
		if a.hoff+n <= len(slab) {
			out := slab[a.hoff : a.hoff+n : a.hoff+n]
			a.hoff += n
			return out
		}
		a.hactive++
		a.hoff = 0
	}
	size := arenaHdrSlabCols
	if n > size {
		size = n
	}
	slab := make([][]dict.ID, size)
	a.freshBytes += int64(size) * 24
	a.freshMallocs++
	a.hslabs = append(a.hslabs, slab)
	a.hactive = len(a.hslabs) - 1
	a.hoff = n
	return slab[0:n:n]
}

// scratch returns *s resized to n, its contents unspecified. Short
// capacity is replaced by at least twice as much (counted as fresh), so
// a slowly growing need reallocates rarely.
func scratch[T any](a *Arena, s *[]T, n int) []T {
	if cap(*s) < n {
		var zero T
		c := max(n, 2*cap(*s))
		*s = make([]T, c)
		a.freshBytes += int64(c) * int64(unsafe.Sizeof(zero))
		a.freshMallocs++
	}
	return (*s)[:n]
}

// saveScratch stores appended-to scratch back into *s, counting any growth.
func saveScratch[T any](a *Arena, s *[]T, grown []T) {
	if cap(grown) > cap(*s) {
		var zero T
		a.freshBytes += int64(cap(grown)-cap(*s)) * int64(unsafe.Sizeof(zero))
		a.freshMallocs++
		*s = grown
	}
}

// hashBuild is the reusable build side of a batch hash join: bucket
// chaining over row indexes (heads holds each bucket's first build
// row, -1 when empty; next links the rest). Rows that share a bucket
// need not share a key — every user confirms a hit by comparing cells.
// Both arrays are reused across joins and queries and readied in time
// proportional to the build at hand, so what a join costs does not
// depend on what the arena served before it.
type hashBuild struct {
	heads []int32 // len is a power of two, at least twice the build rows
	next  []int32
}

// bucket returns the heads slot a 64-bit key hash falls in. The high
// half is folded in because the low bits alone are poor: those of a
// multiplicative hash (bucketHash) or of FNV-1a depend only on the low
// bits of its input.
func (hb *hashBuild) bucket(h uint64) *int32 {
	return &hb.heads[(h^h>>32)&uint64(len(hb.heads)-1)]
}

// buildFor readies the arena's hash-build structure for n build rows.
func (a *Arena) buildFor(n int) *hashBuild {
	if a.build == nil {
		a.build = &hashBuild{}
	}
	hb := a.build
	m := 16
	for m < 2*n {
		m *= 2
	}
	if cap(hb.heads) < m {
		buf := make([]int32, m+m/2) // m/2 >= n chain links behind the buckets
		hb.heads, hb.next = buf[:m:m], buf[m:]
		a.freshBytes += int64(len(buf)) * 4
		a.freshMallocs++
	}
	hb.heads, hb.next = hb.heads[:m], hb.next[:n]
	for i := range hb.heads {
		hb.heads[i] = -1
	}
	return hb
}

// ArenaPool hands out per-rank arena sets keyed by admission slot.
// A query admitted on slot s reuses the arenas the previous slot-s
// query warmed up, so steady-state load runs the whole pre-gather
// pipeline allocation-free. Queries without a slot (engine-direct
// callers, tests) draw from a shared free list.
type ArenaPool struct {
	mu     sync.Mutex
	bySlot map[int][]*Arena
	free   [][]*Arena
}

// NewArenaPool returns an empty pool.
func NewArenaPool() *ArenaPool {
	return &ArenaPool{bySlot: map[int][]*Arena{}}
}

// Get returns a reset arena set of n arenas for the given admission
// slot (slot < 0 means unslotted). The set is exclusively owned until
// Put.
func (p *ArenaPool) Get(slot, n int) []*Arena {
	p.mu.Lock()
	var set []*Arena
	if slot >= 0 {
		if s, ok := p.bySlot[slot]; ok && len(s) >= n {
			set = s
			delete(p.bySlot, slot)
		}
	}
	if set == nil && len(p.free) > 0 {
		for i, s := range p.free {
			if len(s) >= n {
				set = s
				p.free = append(p.free[:i], p.free[i+1:]...)
				break
			}
		}
	}
	p.mu.Unlock()
	if set == nil {
		set = make([]*Arena, n)
		for i := range set {
			set[i] = NewArena()
		}
		return set
	}
	set = set[:n]
	for _, a := range set {
		a.Reset()
	}
	return set
}

// Put returns an arena set to the pool. The caller must guarantee no
// goroutine still reads the arenas' memory (the engine returns sets
// only after the query's MPP world has fully joined).
func (p *ArenaPool) Put(slot int, set []*Arena) {
	if len(set) == 0 {
		return
	}
	p.mu.Lock()
	if slot >= 0 {
		p.bySlot[slot] = set
	} else if len(p.free) < 16 {
		p.free = append(p.free, set)
	}
	p.mu.Unlock()
}
