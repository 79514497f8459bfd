package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// steppingClock swaps the store's capture clock for one that advances
// by step on every reading, so rate-limit behavior is deterministic.
func steppingClock(s *TraceStore, step time.Duration) {
	t := time.Unix(1000, 0)
	s.now = func() time.Time {
		t = t.Add(step)
		return t
	}
}

func TestFlightRecorderCaptureAndGet(t *testing.T) {
	s := NewTraceStore()
	tr := &QueryTrace{ID: "q000001", WallSeconds: 2.5, Resources: &ResourceUsage{AllocBytes: 1 << 20}}
	if !s.Capture("latency", tr) {
		t.Fatal("first capture suppressed")
	}
	rec := s.FlightRecord("q000001")
	if rec == nil {
		t.Fatal("captured record not retrievable")
	}
	if rec.Reason != "latency" || rec.Trace != tr {
		t.Fatalf("record fields wrong: %+v", rec)
	}
	// The snapshots must be real profiles, not empty buffers.
	if len(rec.HeapProfile) == 0 {
		t.Error("heap profile empty")
	}
	if len(rec.GoroutineProfile) == 0 || !bytes.Contains(rec.GoroutineProfile, []byte("goroutine")) {
		t.Errorf("goroutine profile missing or not text (%d bytes)", len(rec.GoroutineProfile))
	}
	if s.FlightRecord("q999999") != nil {
		t.Error("FlightRecord on unknown qid should be nil")
	}
	// A captured trace resolves and is indexed, with its capture reason
	// and profile sizes, even though Put never stored it.
	if s.Get("q000001") != tr {
		t.Error("captured trace not resolvable by Get")
	}
	idx := s.Index()
	if len(idx) != 1 || idx[0].Capture != "latency" ||
		idx[0].HeapBytes != len(rec.HeapProfile) || idx[0].GoroutineBytes != len(rec.GoroutineProfile) {
		t.Fatalf("index = %+v, want one latency row with profile sizes", idx)
	}
}

func TestFlightRecorderRingEviction(t *testing.T) {
	s := newTraceStore(4, 4, 3)
	steppingClock(s, captureInterval)
	for _, qid := range []string{"q1", "q2", "q3", "q4", "q5"} {
		if !s.Capture("latency", &QueryTrace{ID: qid}) {
			t.Fatalf("capture of %s suppressed one interval after the last", qid)
		}
	}
	idx := s.Index()
	if len(idx) != 3 {
		t.Fatalf("profiled list should hold 3, got %d", len(idx))
	}
	// Newest first; the two oldest evicted.
	if idx[0].ID != "q5" || idx[1].ID != "q4" || idx[2].ID != "q3" {
		t.Fatalf("index order wrong: %+v", idx)
	}
	if s.FlightRecord("q1") != nil || s.FlightRecord("q2") != nil || s.Get("q1") != nil {
		t.Error("evicted records still retrievable")
	}
	if idx[0].HeapBytes == 0 || idx[0].GoroutineBytes == 0 {
		t.Error("index entries should report artifact sizes")
	}
}

func TestFlightRecorderRateLimit(t *testing.T) {
	s := NewTraceStore()
	clock := time.Unix(1000, 0)
	s.now = func() time.Time { return clock }

	if !s.Capture("latency", &QueryTrace{ID: "q1"}) {
		t.Fatal("first capture should pass")
	}
	clock = clock.Add(200 * time.Millisecond)
	if s.Capture("latency", &QueryTrace{ID: "q2"}) {
		t.Fatal("capture inside min interval should be suppressed")
	}
	clock = clock.Add(900 * time.Millisecond) // 1.1s after q1
	if !s.Capture("latency", &QueryTrace{ID: "q3"}) {
		t.Fatal("capture after min interval should pass")
	}
	if s.FlightRecord("q2") != nil {
		t.Error("suppressed breach must not leave a record")
	}
}

func TestFlightRecorderNewestWinsOnDuplicateQID(t *testing.T) {
	s := NewTraceStore()
	steppingClock(s, captureInterval)
	s.Capture("latency", &QueryTrace{ID: "q1", WallSeconds: 1})
	s.Capture("latency+alloc", &QueryTrace{ID: "q1", WallSeconds: 9})
	rec := s.FlightRecord("q1")
	if rec == nil || rec.Reason != "latency+alloc" || rec.Trace.WallSeconds != 9 {
		t.Fatalf("FlightRecord should return newest capture, got %+v", rec)
	}
	if idx := s.Index(); len(idx) != 1 || idx[0].Capture != "latency+alloc" {
		t.Fatalf("index = %+v, want one row from the newest capture", idx)
	}
}

func TestFlightRecorderDefaults(t *testing.T) {
	s := NewTraceStore()
	if n := len(s.recent.buf); n != recentTraces {
		t.Errorf("recent bound = %d, want %d", n, recentTraces)
	}
	if n := len(s.pinned.buf); n != pinnedTraces {
		t.Errorf("pinned bound = %d, want %d", n, pinnedTraces)
	}
	if n := len(s.profiled.buf); n != flightRecords {
		t.Errorf("profiled bound = %d, want %d", n, flightRecords)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0B"},
		{712, "712B"},
		{1024, "1.0KiB"},
		{1536, "1.5KiB"},
		{20 << 20, "20.0MiB"},
		{3 << 30, "3.0GiB"},
	}
	for _, tc := range cases {
		if got := FormatBytes(tc.n); got != tc.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

func TestHistogramExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", []float64{0.1, 1, 10})
	h.ObserveExemplar(0.05, "")       // no exemplar
	h.ObserveExemplar(5.0, "q000042") // lands in the (1,10] bucket
	h.ObserveExemplar(0.5, "q000043") // lands in the (0.1,1] bucket

	// Exemplars are OpenMetrics-only: the classic 0.0.4 parser reads
	// the token after the value as a timestamp and fails the scrape,
	// so WritePrometheus must stay exemplar-free.
	var plain strings.Builder
	r.WritePrometheus(&plain)
	if strings.Contains(plain.String(), "trace_id") {
		t.Errorf("0.0.4 exposition carries exemplars:\n%s", plain.String())
	}
	if strings.Contains(plain.String(), "# EOF") {
		t.Errorf("0.0.4 exposition carries the OpenMetrics terminator:\n%s", plain.String())
	}

	var sb strings.Builder
	r.WriteOpenMetrics(&sb)
	text := sb.String()

	if !strings.Contains(text, `# {trace_id="q000042"} 5`) {
		t.Errorf("exposition missing exemplar for q000042:\n%s", text)
	}
	if !strings.Contains(text, `# {trace_id="q000043"} 0.5`) {
		t.Errorf("exposition missing exemplar for q000043:\n%s", text)
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Errorf("OpenMetrics exposition missing # EOF terminator:\n%s", text)
	}
	// Exemplars ride only on _bucket lines; _sum/_count stay classic.
	for _, line := range strings.Split(text, "\n") {
		if line == "# EOF" {
			continue
		}
		if strings.Contains(line, "#") && strings.Contains(line, "trace_id") &&
			!strings.Contains(line, "_bucket{") {
			t.Errorf("exemplar on non-bucket line: %s", line)
		}
	}
	// The landing bucket keeps the last-written exemplar.
	if ex := h.BucketExemplar(2); ex == nil || ex.TraceID != "q000042" {
		t.Errorf("BucketExemplar(2) = %+v, want q000042", ex)
	}
	if ex := h.BucketExemplar(99); ex != nil {
		t.Errorf("out-of-range BucketExemplar should be nil, got %+v", ex)
	}
}
