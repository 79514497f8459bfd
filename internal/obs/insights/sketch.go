package insights

// Bounded-memory primitives for workload statistics: a space-saving
// heavy-hitter sketch over query fingerprints and a log-scale
// histogram for latency/alloc quantiles. Both are sized by
// configuration, never by the number of distinct shapes observed —
// the property that lets the observatory run always-on in front of a
// workload with unbounded literal diversity.

// logHist is a base-2 log-scale histogram: bucket 0 counts values
// below lo, bucket i counts [lo·2^(i-1), lo·2^i), the last bucket is
// open-ended. ~26 buckets cover 100µs..1h of latency; ~30 cover
// 1KiB..1TiB of allocation — a fixed few hundred bytes per tracked
// fingerprint.
type logHist struct {
	lo     float64
	counts []uint64
	total  uint64
}

func newLogHist(lo float64, buckets int) logHist {
	return logHist{lo: lo, counts: make([]uint64, buckets)}
}

func (h *logHist) observe(v float64) {
	i := 0
	for bound := h.lo; v >= bound && i < len(h.counts)-1; bound *= 2 {
		i++
	}
	h.counts[i]++
	h.total++
}

// quantile returns an interpolated value at quantile q (0..1): the
// geometric midpoint walk within the covering bucket. Zero when the
// histogram is empty.
func (h *logHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(q * float64(h.total))
	if rank >= h.total {
		rank = h.total - 1
	}
	var cum uint64
	for i, c := range h.counts {
		if cum+c > rank {
			// Interpolate linearly inside the bucket's geometric span.
			lo, hi := h.bucketBounds(i)
			frac := float64(rank-cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	return 0
}

func (h *logHist) bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, h.lo
	}
	lo = h.lo
	for j := 1; j < i; j++ {
		lo *= 2
	}
	return lo, lo * 2
}

func (h *logHist) reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
}

// entry is one tracked fingerprint's rolling statistics.
type entry struct {
	fp uint64
	// count is the space-saving estimate; countErr its overestimation
	// bound (the evicted entry's count inherited at takeover).
	count    uint64
	countErr uint64

	errors   uint64
	degraded uint64
	rows     uint64
	retained uint64 // tail-retained traces of this shape

	allocTotal uint64
	lat        logHist // seconds
	alloc      logHist // bytes

	query   string // sample query text (first observed for this shape)
	lastQID string
}

// sketch is the Metwally space-saving top-k structure: at most k
// entries; when full, a new fingerprint takes over the minimum-count
// entry, inheriting its count as both floor and error bound. Memory
// is O(k) regardless of distinct fingerprints seen.
type sketch struct {
	k         int
	entries   map[uint64]*entry
	takeovers uint64
}

func newSketch(k int) *sketch {
	return &sketch{k: k, entries: make(map[uint64]*entry, k)}
}

func (s *sketch) get(fp uint64) *entry {
	if e, ok := s.entries[fp]; ok {
		e.count++
		return e
	}
	if len(s.entries) < s.k {
		e := &entry{
			fp: fp, count: 1,
			lat:   newLogHist(1e-4, 26), // 100µs .. ~56min
			alloc: newLogHist(1024, 30), // 1KiB .. ~512GiB
		}
		s.entries[fp] = e
		return e
	}
	// Take over the minimum-count entry: classic space-saving. The new
	// shape inherits the victim's count as its floor (countErr bounds
	// the overestimation); per-shape stats reset since they describe
	// the evicted shape.
	var min *entry
	for _, e := range s.entries {
		if min == nil || e.count < min.count {
			min = e
		}
	}
	delete(s.entries, min.fp)
	s.takeovers++
	min.countErr = min.count
	min.count++
	min.fp = fp
	min.errors, min.degraded = 0, 0
	min.rows, min.retained, min.allocTotal = 0, 0, 0
	min.lat.reset()
	min.alloc.reset()
	min.query, min.lastQID = "", ""
	s.entries[fp] = min
	return min
}
