// Package triple implements the per-shard triple indexes of the IDS
// datastore. Each MPP rank owns one Store holding the dictionary-
// encoded triples of its data shard in three sort orders (SPO, POS,
// OSP), so any access pattern with bound components resolves to a
// binary-searched contiguous range.
package triple

import (
	"slices"
	"sort"

	"ids/internal/dict"
)

// Triple is one dictionary-encoded RDF statement.
type Triple struct {
	S, P, O dict.ID
}

// Store holds one shard's triples. Call Add during ingest, then Seal
// before querying; Seal sorts and deduplicates the three indexes.
// A sealed store is safe for concurrent readers.
type Store struct {
	spo    []Triple
	pos    []Triple
	osp    []Triple
	sealed bool
}

// New returns an empty store.
func New() *Store { return &Store{} }

// Add appends a triple. Not safe for concurrent use; each ingest rank
// owns its store exclusively during load.
func (st *Store) Add(t Triple) {
	st.spo = append(st.spo, t)
	st.sealed = false
}

// Len returns the number of (deduplicated, if sealed) triples.
func (st *Store) Len() int { return len(st.spo) }

// Seal sorts the three indexes and removes duplicate triples. It is
// idempotent.
func (st *Store) Seal() {
	if st.sealed {
		return
	}
	sortTriples(st.spo, cmpSPO)
	st.spo = dedup(st.spo)
	st.pos = append(st.pos[:0], st.spo...)
	sortTriples(st.pos, cmpPOS)
	st.osp = append(st.osp[:0], st.spo...)
	sortTriples(st.osp, cmpOSP)
	st.sealed = true
}

// sortTriples sorts via slices.SortFunc: the three-way comparator is
// used directly, with no per-call less closure or reflection (the
// former sort.Slice path allocated both on every Seal).
func sortTriples(ts []Triple, cmp func(a, b Triple) int) {
	slices.SortFunc(ts, cmp)
}

func dedup(ts []Triple) []Triple {
	out := ts[:0]
	for i, t := range ts {
		if i == 0 || t != ts[i-1] {
			out = append(out, t)
		}
	}
	return out
}

func cmp3(a1, b1, a2, b2, a3, b3 dict.ID) int {
	switch {
	case a1 < b1:
		return -1
	case a1 > b1:
		return 1
	case a2 < b2:
		return -1
	case a2 > b2:
		return 1
	case a3 < b3:
		return -1
	case a3 > b3:
		return 1
	}
	return 0
}

func cmpSPO(a, b Triple) int { return cmp3(a.S, b.S, a.P, b.P, a.O, b.O) }
func cmpPOS(a, b Triple) int { return cmp3(a.P, b.P, a.O, b.O, a.S, b.S) }
func cmpOSP(a, b Triple) int { return cmp3(a.O, b.O, a.S, b.S, a.P, b.P) }

// Pattern is a triple pattern; dict.None components are wildcards.
type Pattern struct {
	S, P, O dict.ID
}

// Match calls fn for every triple matching the pattern; fn returning
// false stops the scan early. The store must be sealed.
func (st *Store) Match(p Pattern, fn func(Triple) bool) {
	if !st.sealed {
		panic("triple: Match on unsealed store")
	}
	idx, lo, hi := st.choose(p)
	for i := lo; i < hi; i++ {
		t := idx[i]
		if (p.S != dict.None && t.S != p.S) ||
			(p.P != dict.None && t.P != p.P) ||
			(p.O != dict.None && t.O != p.O) {
			continue
		}
		if !fn(t) {
			return
		}
	}
}

// Count returns the number of triples matching the pattern.
func (st *Store) Count(p Pattern) int {
	n := 0
	st.Match(p, func(Triple) bool { n++; return true })
	return n
}

// choose picks the best index for the bound components and returns the
// index slice plus the half-open range [lo,hi) to scan. Components not
// covered by the chosen sort prefix are re-filtered by Match.
func (st *Store) choose(p Pattern) (idx []Triple, lo, hi int) {
	const maxID = ^dict.ID(0)
	sB, pB, oB := p.S != dict.None, p.P != dict.None, p.O != dict.None
	switch {
	case sB && pB:
		lo, hi = rangeOf(st.spo, cmpSPO, Triple{p.S, p.P, 0}, Triple{p.S, p.P, maxID})
		return st.spo, lo, hi
	case sB:
		lo, hi = rangeOf(st.spo, cmpSPO, Triple{p.S, 0, 0}, Triple{p.S, maxID, maxID})
		return st.spo, lo, hi
	case pB && oB:
		lo, hi = rangeOf(st.pos, cmpPOS, Triple{0, p.P, p.O}, Triple{maxID, p.P, p.O})
		return st.pos, lo, hi
	case pB:
		lo, hi = rangeOf(st.pos, cmpPOS, Triple{0, p.P, 0}, Triple{maxID, p.P, maxID})
		return st.pos, lo, hi
	case oB:
		lo, hi = rangeOf(st.osp, cmpOSP, Triple{0, 0, p.O}, Triple{maxID, maxID, p.O})
		return st.osp, lo, hi
	default:
		return st.spo, 0, len(st.spo)
	}
}

// rangeOf returns [lo,hi) such that all triples t with min<=t<=max (in
// cmp order) fall inside. min and max use 0 / MaxID as open bounds.
func rangeOf(idx []Triple, cmp func(a, b Triple) int, min, max Triple) (int, int) {
	lo, _ := slices.BinarySearchFunc(idx, min, cmp)
	// For hi we need the insertion point after the run of elements equal
	// to max, so map cmp==0 to "target is greater".
	hi, _ := slices.BinarySearchFunc(idx, max, func(t, target Triple) int {
		if c := cmp(t, target); c != 0 {
			return c
		}
		return -1
	})
	return lo, hi
}

// Delete removes the exact triple from a sealed store, returning
// whether it was present. Each index is patched in place (O(n) copy),
// matching the bulk-oriented update model of the underlying engine.
func (st *Store) Delete(t Triple) bool {
	if !st.sealed {
		panic("triple: Delete on unsealed store")
	}
	removed := false
	for _, ix := range []struct {
		idx *[]Triple
		cmp func(a, b Triple) int
	}{
		{&st.spo, cmpSPO}, {&st.pos, cmpPOS}, {&st.osp, cmpOSP},
	} {
		s := *ix.idx
		if i, ok := slices.BinarySearchFunc(s, t, ix.cmp); ok {
			*ix.idx = append(s[:i], s[i+1:]...)
			removed = true
		}
	}
	return removed
}

// Insert adds a triple to a sealed store, keeping the indexes sorted
// (O(n) insertion per index). Duplicate inserts are no-ops.
func (st *Store) Insert(t Triple) bool {
	if !st.sealed {
		panic("triple: Insert on unsealed store")
	}
	if st.Contains(t) {
		return false
	}
	for _, ix := range []struct {
		idx *[]Triple
		cmp func(a, b Triple) int
	}{
		{&st.spo, cmpSPO}, {&st.pos, cmpPOS}, {&st.osp, cmpOSP},
	} {
		s := *ix.idx
		i, _ := slices.BinarySearchFunc(s, t, ix.cmp)
		s = append(s, Triple{})
		copy(s[i+1:], s[i:])
		s[i] = t
		*ix.idx = s
	}
	return true
}

// Contains reports whether the exact triple is present.
func (st *Store) Contains(t Triple) bool {
	found := false
	st.Match(Pattern{t.S, t.P, t.O}, func(Triple) bool { found = true; return false })
	return found
}

// PredicateStats returns triple counts per predicate, used by the
// query planner's selectivity estimates. pos is sorted by predicate,
// so each predicate's run is counted with one binary search for its
// end: O(predicates · log n), not a pass over every triple.
func (st *Store) PredicateStats() map[dict.ID]int {
	stats := make(map[dict.ID]int)
	for run := st.pos; len(run) > 0; {
		p := run[0].P
		n := sort.Search(len(run), func(i int) bool { return run[i].P != p })
		stats[p] = n
		run = run[n:]
	}
	return stats
}
