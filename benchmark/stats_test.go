package main

import (
	"math"
	"testing"
	"time"
)

// uniform spreads n samples evenly over the window, each at the middle
// of its n-th of it; sample i has latency lat(i).
func uniform(n int, window time.Duration, lat func(i int) float64) []timed {
	out := make([]timed, n)
	for i := range out {
		out[i] = timed{at: time.Duration(int64(window) * int64(2*i+1) / int64(2*n)), lat: lat(i)}
	}
	return out
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {1, 50}, {0.125, 15}, {0.95, 48}} {
		if got := percentile(s, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSupportsNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true}, {19, 0.5, false}, {20, 0.5, true}, {999, 0.99, false}, {1000, 0.99, true},
	} {
		if got := supports(c.n, c.q); got != c.want {
			t.Errorf("supports(%d, %v) = %t, want %t", c.n, c.q, got, c.want)
		}
	}
}

func TestSlicePercentileRidesOutOneBadSlice(t *testing.T) {
	window := 10 * time.Second
	// 2,000 samples at 1 ms, except the second slice of five at 100 ms.
	samples := uniform(2000, window, func(i int) float64 {
		if i >= 400 && i < 800 {
			return 100
		}
		return 1
	})
	v, k, ok := slicePercentile(samples, window, 0.95)
	if !ok || k != 5 || v != 1 {
		t.Fatalf("slicePercentile = %v over %d slices (ok %t), want 1 over 5", v, k, ok)
	}
}

func TestSlicePercentileFallsBackThenRefuses(t *testing.T) {
	window := 10 * time.Second
	lat := func(i int) float64 { return float64(i%100 + 1) }
	for _, c := range []struct {
		n, slices int
		ok        bool
	}{
		{1000, 5, true}, // 200 per slice: 10 beyond p95 in each
		{999, 3, true},  // one slice of five falls to 199
		{600, 3, true},  // 200 per third
		{599, 1, true},  // thirds fall short, the whole window does not
		{200, 1, true},
		{199, 0, false}, // fewer than 10 beyond p95 anywhere: refuse
	} {
		_, k, ok := slicePercentile(uniform(c.n, window, lat), window, 0.95)
		if ok != c.ok || k != c.slices {
			t.Errorf("n=%d: %d slices, ok %t; want %d, %t", c.n, k, ok, c.slices, c.ok)
		}
	}
}

func TestSliceThroughputFlagsNoise(t *testing.T) {
	window := 10 * time.Second
	steady := sliceThroughput(uniform(1000, window, func(int) float64 { return 1 }), window)
	if steady.Median != 100 || steady.Min != 100 || steady.Max != 100 || steady.Noisy {
		t.Errorf("steady load: %+v, want 100 ops/s throughout and not noisy", steady)
	}
	// The last slice gets half the ops of the others.
	var lumpy []timed
	for _, s := range uniform(1000, window, func(int) float64 { return 1 }) {
		if s.at < 8*time.Second || len(lumpy)%2 == 0 {
			lumpy = append(lumpy, s)
		}
	}
	if got := sliceThroughput(lumpy, window); !got.Noisy {
		t.Errorf("a slice at half rate was not flagged noisy: %+v", got)
	}
}

func TestSelfTimeSubtractsAndClamps(t *testing.T) {
	if got := selfTime(100, 30, 20); got != 50 {
		t.Errorf("selfTime(100, 30, 20) = %v, want 50", got)
	}
	if got := selfTime(100); got != 100 {
		t.Errorf("selfTime without children = %v, want 100", got)
	}
	if got := selfTime(100, 70, 40); got != 0 {
		t.Errorf("children that outlast the parent must clamp to 0, got %v", got)
	}
}

func TestRelWorseIsSignedByDirection(t *testing.T) {
	if got := relWorse(100, 110, "lower"); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("latency 100 -> 110 is %v worse, want 0.1", got)
	}
	if got := relWorse(100, 90, "higher"); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("throughput 100 -> 90 is %v worse, want 0.1", got)
	}
	if got := relWorse(100, 90, "lower"); got >= 0 {
		t.Errorf("latency 100 -> 90 is an improvement, got %v", got)
	}
}

// The ledger must add up: with exact spans the self times and leaves of
// a class partition its round trip, and weights follow the op counts.
func TestSpanMetricsPartitionTheRoundTrip(t *testing.T) {
	tr := &tracer{workload: "w"}
	add := func(id int, class, name string, us int64) {
		tr.spans = append(tr.spans, span{OpID: id, Class: class, Name: name, EndNS: us * 1000})
	}
	for id := 0; id < 3; id++ { // three fast ops
		for name, us := range map[string]int64{
			"client.roundtrip": 100, "server.handle": 70, "engine.query_traced": 50, "ids.decode_rows": 5, "ids.encode_json": 5,
			"engine.query": 45, "sparql.parse": 2, "engine.execute": 40, "plan.build": 3, "mpp.world_spinup": 20,
		} {
			add(id, "fast", name, us)
		}
	}
	for name, us := range map[string]int64{ // one slow op, ten times the cost
		"client.roundtrip": 1000, "server.handle": 700, "engine.query_traced": 500, "ids.decode_rows": 50, "ids.encode_json": 50,
		"engine.query": 450, "sparql.parse": 20, "engine.execute": 400, "plan.build": 30, "mpp.world_spinup": 200,
	} {
		add(3, "slow", name, us)
	}
	m := map[string]float64{}
	tr.spanMetrics(m)
	want := map[string]float64{
		"client.roundtrip_us":   (3*100 + 1000) / 4.0,
		"client.self_us":        (3*30 + 300) / 4.0,
		"server.self_us":        (3*10 + 100) / 4.0,
		"obs.trace_overhead_us": (3*5 + 50) / 4.0,
		"engine.query_self_us":  (3*3 + 30) / 4.0,
		"engine.exec_self_us":   (3*17 + 170) / 4.0,
		"engine.update_self_us": 0,
		"trace.ledger_coverage": 1,
	}
	for name, w := range want {
		if got := m[name]; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}
