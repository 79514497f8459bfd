package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported (choosing-metrics guide, section 1).
const minBeyond = 10

// percentile returns the q-th quantile of an ascending-sorted slice,
// interpolating linearly between order statistics.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := q * float64(len(sorted)-1)
	lo := int(rank)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// median sorts a copy of xs and returns its middle (0 when empty).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// supports reports whether n samples leave at least minBeyond of them
// beyond the q-th quantile (on its far side from the median).
func supports(n int, q float64) bool {
	tail := math.Min(q, 1-q)
	return int(float64(n)*tail+1e-9) >= minBeyond // 1-0.9 is a hair under 0.1
}

// timed is one latency observed at an offset from the window start.
type timed struct {
	at  time.Duration
	lat float64
}

// sliceCounts are the slicings tried, finest first. A burst from a
// noisy neighbour spoils one slice; the median of the slice values
// rides it out, which a percentile over the whole window would not.
var sliceCounts = []int{5, 3, 1}

// slicePercentile cuts the window into equal slices, takes the q-th
// quantile of each and returns the median of those. It uses the finest
// slicing in which every slice still supports the quantile, and
// refuses (ok false) when even the whole window does not.
func slicePercentile(samples []timed, window time.Duration, q float64) (v float64, k int, ok bool) {
	for _, n := range sliceCounts {
		vals := make([]float64, 0, n)
		for _, p := range cut(samples, window, n) {
			if !supports(len(p), q) {
				break
			}
			slices.Sort(p)
			vals = append(vals, percentile(p, q))
		}
		if len(vals) == n {
			return median(vals), n, true
		}
	}
	return 0, 0, false
}

// cut distributes the latencies of samples inside [0, window) over k
// equal time slices.
func cut(samples []timed, window time.Duration, k int) [][]float64 {
	parts := make([][]float64, k)
	for _, s := range samples {
		if s.at < 0 || s.at >= window {
			continue
		}
		i := int(int64(s.at) * int64(k) / int64(window))
		parts[i] = append(parts[i], s.lat)
	}
	return parts
}

// throughput is completed ops per second per slice of the window.
type throughput struct {
	Median, Min, Max float64
	// Noisy flags a run whose slices disagree by more than a quarter
	// of their median: the box was shared with something else.
	Noisy bool
}

func sliceThroughput(samples []timed, window time.Duration) throughput {
	k := sliceCounts[0]
	per := window.Seconds() / float64(k)
	rates := make([]float64, 0, k)
	for _, p := range cut(samples, window, k) {
		rates = append(rates, float64(len(p))/per)
	}
	t := throughput{Median: median(rates), Min: slices.Min(rates), Max: slices.Max(rates)}
	t.Noisy = t.Median > 0 && (t.Max-t.Min)/t.Median > 0.25
	return t
}

// selfTime is a span's duration minus its declared children, clamped
// at zero: parent and children are separate executions of the same op,
// so their difference can dip below zero by noise alone.
func selfTime(parent float64, children ...float64) float64 {
	for _, c := range children {
		parent -= c
	}
	return math.Max(parent, 0)
}

// relWorse is how much worse b is than a as a share of a, signed so
// that positive always means worse.
func relWorse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
