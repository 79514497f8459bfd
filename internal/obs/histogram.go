package obs

import (
	"math"
	"sync/atomic"
)

// Histogram is a fixed-bucket latency histogram with atomic counters:
// Observe is a binary search plus two atomic adds, safe for concurrent
// use from rank goroutines, and the exposition layer renders the
// Prometheus _bucket/_sum/_count series plus exact
// quantile-from-bucket estimates. It never aliases under load — every
// observation lands in a bucket counter, so a scrape after a burst
// still sees the burst.
type Histogram struct {
	// bounds are the inclusive upper bounds of each bucket, ascending.
	// An implicit +Inf bucket follows the last bound.
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	// exemplars holds, per bucket, the most recent traced observation
	// (ObserveExemplar) — the handle that links a slow histogram bucket
	// back to its query trace. Last-write-wins per bucket.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram observation to the trace that produced
// it, rendered OpenMetrics-style after the matching _bucket sample.
type Exemplar struct {
	TraceID string
	Value   float64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds (the +Inf bucket is implicit; do not include it).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Uint64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start, each factor times the previous.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets spans 100µs .. ~52s doubling per bucket — wide
// enough for both sub-millisecond point lookups and multi-second
// docking-heavy queries.
var DefLatencyBuckets = ExpBuckets(1e-4, 2, 20)

// Observe records one sample. NaN and ±Inf are dropped so a single bad
// measurement can never poison the sum.
func (h *Histogram) Observe(v float64) {
	h.ObserveExemplar(v, "")
}

// ObserveExemplar records one sample and, when traceID is non-empty,
// pins it as the bucket's exemplar (last-write-wins), so the bucket a
// slow query landed in points back at its trace. NaN and ±Inf are
// dropped so a single bad measurement can never poison the sum.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	// First bucket whose bound >= v (binary search; bounds are short).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	if traceID != "" {
		h.exemplars[lo].Store(&Exemplar{TraceID: traceID, Value: v})
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketExemplar returns the pinned exemplar of bucket i (0-based over
// bounds, len(bounds) = the +Inf bucket), or nil when the bucket never
// saw a traced observation.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Cumulative returns the cumulative count at each bound plus the +Inf
// total, matching the Prometheus _bucket series. The snapshot is not
// atomic across buckets (concurrent Observes may land mid-walk), which
// Prometheus histogram semantics tolerate.
func (h *Histogram) Cumulative() []uint64 {
	out := make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		out[i] = run
	}
	return out
}

// Quantile estimates the q-th quantile from the bucket counts with
// linear interpolation inside the target bucket (the standard
// histogram_quantile estimate). Returns 0 when empty; a quantile that
// lands in the +Inf bucket reports the highest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	cum := h.Cumulative()
	total := cum[len(cum)-1]
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	for i, c := range cum {
		if float64(c) < rank {
			continue
		}
		if i == len(h.bounds) {
			// +Inf bucket: the best point estimate is the last bound.
			if len(h.bounds) == 0 {
				return 0
			}
			return h.bounds[len(h.bounds)-1]
		}
		lower := 0.0
		var below uint64
		if i > 0 {
			lower = h.bounds[i-1]
			below = cum[i-1]
		}
		inBucket := float64(c - below)
		if inBucket <= 0 {
			return h.bounds[i]
		}
		frac := (rank - float64(below)) / inBucket
		if frac < 0 {
			frac = 0
		}
		return lower + (h.bounds[i]-lower)*frac
	}
	return h.bounds[len(h.bounds)-1]
}
