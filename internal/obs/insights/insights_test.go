package insights

import (
	"fmt"
	"math"
	"testing"
)

func TestObservatoryAggregatesByFingerprint(t *testing.T) {
	o := New(Config{TopK: 8, SampleN: -1})
	for i := 0; i < 10; i++ {
		o.Observe(Observation{
			Fingerprint: 0xaaaa, Query: "SELECT a", QID: fmt.Sprintf("q%d", i),
			Seconds: 0.001, AllocBytes: 1 << 20, Rows: 5,
		})
	}
	for i := 0; i < 3; i++ {
		o.Observe(Observation{Fingerprint: 0xbbbb, Query: "SELECT b", Seconds: 0.1, AllocBytes: 1 << 10})
	}
	o.Observe(Observation{Fingerprint: 0xbbbb, Error: true, Seconds: 0.0001})

	s := o.Snapshot()
	if s.TotalQueries != 14 || s.TotalErrors != 1 || s.Tracked != 2 {
		t.Fatalf("snapshot totals: %+v", s)
	}
	top := s.Fingerprints
	if len(top) != 2 || top[0].Fingerprint != "000000000000aaaa" {
		t.Fatalf("top order wrong: %+v", top)
	}
	a, b := top[0], top[1]
	if a.Count != 10 || a.Rows != 50 || a.Query != "SELECT a" || a.LastQID != "q9" {
		t.Fatalf("aaaa row: %+v", a)
	}
	if b.Count != 4 || b.Errors != 1 {
		t.Fatalf("bbbb row: %+v", b)
	}
	// p50 latency of shape a should land near 1ms on the log scale.
	if a.LatencyP50 < 0.0004 || a.LatencyP50 > 0.004 {
		t.Fatalf("latency p50 = %v, want ~1ms", a.LatencyP50)
	}
	if a.AllocP50 < float64(1<<19) || a.AllocP50 > float64(1<<21) {
		t.Fatalf("alloc p50 = %v, want ~1MiB", a.AllocP50)
	}
	// Alloc share: a has 10MiB of ~10.004MiB total.
	if a.AllocShare < 0.99 || a.AllocShare > 1.0 {
		t.Fatalf("alloc share = %v", a.AllocShare)
	}
	if math.Abs(a.AllocShare+b.AllocShare-1.0) > 1e-9 {
		t.Fatalf("shares do not sum to 1: %v + %v", a.AllocShare, b.AllocShare)
	}
}

// TestSketchBoundedMemory: the sketch never exceeds TopK entries no
// matter how many distinct fingerprints stream through — the
// acceptance-criteria property.
func TestSketchBoundedMemory(t *testing.T) {
	o := New(Config{TopK: 16, SampleN: -1})
	// A heavy hitter interleaved with 10k distinct one-off shapes.
	for i := 0; i < 10000; i++ {
		o.Observe(Observation{Fingerprint: uint64(1000 + i), Seconds: 1e-4})
		if i%10 == 0 {
			o.Observe(Observation{Fingerprint: 7, Seconds: 1e-4})
		}
	}
	s := o.Snapshot()
	if s.Tracked > 16 {
		t.Fatalf("sketch grew to %d entries, cap 16", s.Tracked)
	}
	if s.TotalQueries != 11000 {
		t.Fatalf("total = %d", s.TotalQueries)
	}
	// The heavy hitter must survive the churn and report >= its true
	// count (space-saving never undercounts a tracked key).
	for _, r := range s.Fingerprints {
		if r.Fingerprint == "0000000000000007" {
			if r.Count < 1000 {
				t.Fatalf("heavy hitter count %d < true 1000", r.Count)
			}
			return
		}
	}
	t.Fatal("heavy hitter evicted from sketch")
}

func TestTailDecision(t *testing.T) {
	o := New(Config{TopK: 8, SampleN: 4, SlowSeconds: 0.5, AllocBudget: 1 << 20})

	// First occurrence of a shape: always sampled.
	d := o.Observe(Observation{Fingerprint: 1, Seconds: 0.001})
	if !d.Retain || d.Reason() != "sample" {
		t.Fatalf("first occurrence: %+v", d)
	}
	// Occurrences 2..4 of the same shape: dropped (fast, no budget hit).
	for i := 0; i < 3; i++ {
		if d := o.Observe(Observation{Fingerprint: 1, Seconds: 0.001}); d.Retain {
			t.Fatalf("occurrence %d retained: %+v", i+2, d)
		}
	}
	// Occurrence 5 = counter 4 → 1-in-4 fires again.
	if d := o.Observe(Observation{Fingerprint: 1, Seconds: 0.001}); !d.Retain {
		t.Fatal("1-in-N sample did not fire on schedule")
	}
	// Slow, error, alloc reasons compose.
	d = o.Observe(Observation{Fingerprint: 1, Seconds: 0.9, Error: true, AllocBytes: 2 << 20})
	if !d.Retain || d.Reason() != "slow,error,alloc" {
		t.Fatalf("composite decision: %+v", d)
	}
	// Sampling disabled: fast healthy queries are never retained.
	o2 := New(Config{TopK: 8, SampleN: -1, SlowSeconds: 0.5})
	if d := o2.Observe(Observation{Fingerprint: 9, Seconds: 0.001}); d.Retain {
		t.Fatalf("retained with sampling off: %+v", d)
	}
}

// The slow verdict is the one the trace ring pins on: a wall time equal
// to the budget counts as slow, just below it does not.
func TestTailDecisionSlowBoundary(t *testing.T) {
	o := New(Config{TopK: 8, SampleN: -1, SlowSeconds: 0.5})
	if d := o.Observe(Observation{Fingerprint: 1, Seconds: 0.499999}); d.Retain {
		t.Fatalf("below the budget retained: %+v", d)
	}
	if d := o.Observe(Observation{Fingerprint: 1, Seconds: 0.5}); !d.Retain || d.Reason() != "slow" {
		t.Fatalf("wall == budget: %+v, want retained as slow", d)
	}
}

func TestTopKLimit(t *testing.T) {
	o := New(Config{TopK: 32, SampleN: -1})
	for i := 0; i < 20; i++ {
		for j := 0; j <= i; j++ {
			o.Observe(Observation{Fingerprint: uint64(100 + i)})
		}
	}
	top := o.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d rows", len(top))
	}
	if top[0].Count != 20 || top[1].Count != 19 || top[2].Count != 18 {
		t.Fatalf("TopK order: %+v", top)
	}
}

func TestLogHistQuantiles(t *testing.T) {
	h := newLogHist(1e-4, 26)
	for i := 0; i < 1000; i++ {
		h.observe(0.01) // 10ms
	}
	q := h.quantile(0.5)
	if q < 0.005 || q > 0.03 {
		t.Fatalf("p50 of constant 10ms stream = %v", q)
	}
	if h.quantile(0.99) < q {
		t.Fatal("p99 < p50")
	}
	var empty logHist
	empty = newLogHist(1, 4)
	if empty.quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
}
