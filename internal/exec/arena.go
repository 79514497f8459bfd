package exec

import (
	"sync"

	"ids/internal/dict"
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
	// parts/chunks are the partition counting-sort counters and send
	// chunks (reused once the preceding exchange's trailing barrier
	// guarantees no rank still reads them).
	parts  []int
	chunks []batchChunk
	// build is the reusable hash-join build structure.
	build *hashBuild
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

// intScratch returns an n-element int scratch (contents unspecified).
func (a *Arena) intScratch(n int) []int {
	if cap(a.parts) < n {
		a.parts = make([]int, n)
		a.freshBytes += int64(n) * 8
		a.freshMallocs++
	}
	return a.parts[:n]
}

// chunkScratch returns an n-element send-chunk scratch. Callers may
// only reuse it after the exchange consuming the previous chunks has
// fully completed (its trailing barrier is the fence).
func (a *Arena) chunkScratch(n int) []batchChunk {
	if cap(a.chunks) < n {
		a.chunks = make([]batchChunk, n)
		a.freshBytes += int64(n) * 32
		a.freshMallocs++
	}
	return a.chunks[:n]
}

// selSlice returns the primary selection scratch with length 0 and
// capacity at least hint.
func (a *Arena) selSlice(hint int) []int32 {
	if cap(a.sel) < hint {
		a.growSel(&a.sel, hint)
	}
	return a.sel[:0]
}

// selSliceB returns the secondary selection scratch (build-side row
// indexes) with length 0.
func (a *Arena) selSliceB(hint int) []int32 {
	if cap(a.selB) < hint {
		a.growSel(&a.selB, hint)
	}
	return a.selB[:0]
}

func (a *Arena) growSel(s *[]int32, hint int) {
	n := cap(*s) * 2
	if n < hint {
		n = hint
	}
	if n < 1024 {
		n = 1024
	}
	*s = make([]int32, 0, n)
	a.freshBytes += int64(n) * 4
	a.freshMallocs++
}

// saveSel stores grown selection scratch back for reuse; the batch
// operators call it after appending (append may have reallocated).
func (a *Arena) saveSel(s []int32) {
	if cap(s) > cap(a.sel) {
		a.freshBytes += int64(cap(s)-cap(a.sel)) * 4
		a.freshMallocs++
		a.sel = s
	}
}

func (a *Arena) saveSelB(s []int32) {
	if cap(s) > cap(a.selB) {
		a.freshBytes += int64(cap(s)-cap(a.selB)) * 4
		a.freshMallocs++
		a.selB = s
	}
}

// bindScratch returns the probe join's binding scratch with length 0.
func (a *Arena) bindScratch() [][3]dict.ID { return a.binds[:0] }

// saveBinds stores grown binding scratch back for reuse.
func (a *Arena) saveBinds(s [][3]dict.ID) {
	if cap(s) > cap(a.binds) {
		a.freshBytes += int64(cap(s)-cap(a.binds)) * 24
		a.freshMallocs++
		a.binds = s
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
// half is folded in because the low bits alone are poor here: a rank
// holds only rows with one value of h % p, and FNV-1a's low bits depend
// only on its input's low bits.
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
