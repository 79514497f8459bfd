package obs

import (
	"bytes"
	"runtime/pprof"
	"time"
)

// A flight record is post-hoc debuggable evidence of a query that
// breached its latency or allocation budget: the offending trace plus
// heap and goroutine profile snapshots, kept in the TraceStore's
// profiled list. A slow-query WARN line tells you *that* something was
// slow; the flight record tells you *what the process looked like* at
// that moment — without anyone having been attached to pprof at the
// time. Captures are rate-limited (captureInterval) so a storm of slow
// queries costs at most one profile snapshot per interval.

// captureInterval is the minimum spacing between captures.
const captureInterval = time.Second

// FlightRecord is one captured budget breach.
type FlightRecord struct {
	QID    string `json:"qid"`
	Reason string `json:"reason"` // "latency", "alloc", or "latency+alloc"
	// Fingerprint is the breaching query's workload shape (copied from
	// the trace), so repeated breaches of one shape are linkable — and
	// /insights can surface "this hot fingerprint has flight records".
	Fingerprint string    `json:"fingerprint,omitempty"`
	Captured    time.Time `json:"captured"`
	// WallSeconds/AllocBytes are the trace's measurements (alloc_bytes
	// 0 when the trace carries no resource block).
	WallSeconds float64 `json:"wall_seconds"`
	AllocBytes  int64   `json:"alloc_bytes"`
	// Trace is the offending query's span trace.
	Trace *QueryTrace `json:"trace,omitempty"`
	// HeapProfile is a pprof heap snapshot (protobuf, debug=0 — feed it
	// to `go tool pprof`). GoroutineProfile is the human-readable
	// goroutine dump (debug=1). Both are served raw by
	// GET /debug/flightrec?id=<qid>&artifact=heap|goroutine and elided
	// from JSON listings (sizes only).
	HeapProfile      []byte `json:"-"`
	GoroutineProfile []byte `json:"-"`
}

// FlightIndexEntry is one row of the flight-recorder listing.
type FlightIndexEntry struct {
	QID            string    `json:"qid"`
	Reason         string    `json:"reason"`
	Fingerprint    string    `json:"fingerprint,omitempty"`
	Captured       time.Time `json:"captured"`
	WallSeconds    float64   `json:"wall_seconds"`
	AllocBytes     int64     `json:"alloc_bytes"`
	HeapBytes      int       `json:"heap_profile_bytes"`
	GoroutineBytes int       `json:"goroutine_profile_bytes"`
}

// Capture records one budget breach of tr: it snapshots the heap and
// goroutine profiles and keeps them with the trace. Returns false when
// the capture was suppressed by the rate limit (the breach still
// counts in FlightStats).
func (s *TraceStore) Capture(reason string, tr *QueryTrace) bool {
	s.mu.Lock()
	now := s.now()
	if !s.lastCapture.IsZero() && now.Sub(s.lastCapture) < captureInterval {
		s.suppressed++
		s.mu.Unlock()
		return false
	}
	s.lastCapture = now
	s.captures++
	s.mu.Unlock()

	// Profile collection happens outside the lock: WriteTo stops the
	// world briefly and can take milliseconds on big heaps.
	rec := &FlightRecord{
		QID: tr.ID, Reason: reason, Fingerprint: tr.Fingerprint, Captured: now,
		WallSeconds: tr.WallSeconds, Trace: tr,
	}
	if tr.Resources != nil {
		rec.AllocBytes = tr.Resources.AllocBytes
	}
	var heap, gor bytes.Buffer
	if p := pprof.Lookup("heap"); p != nil {
		_ = p.WriteTo(&heap, 0)
	}
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&gor, 1)
	}
	rec.HeapProfile = heap.Bytes()
	rec.GoroutineProfile = gor.Bytes()

	s.mu.Lock()
	s.profiled.push(rec)
	s.mu.Unlock()
	return true
}

// FlightRecord returns the flight record for qid (newest wins on
// duplicate captures), or nil.
func (s *TraceStore) FlightRecord(qid string) *FlightRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.profiled.n; i++ {
		if rec := s.profiled.at(i); rec.QID == qid {
			return rec
		}
	}
	return nil
}

// FlightIndex lists flight records newest-first with artifact sizes.
func (s *TraceStore) FlightIndex() []FlightIndexEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]FlightIndexEntry, 0, s.profiled.n)
	for i := 0; i < s.profiled.n; i++ {
		rec := s.profiled.at(i)
		out = append(out, FlightIndexEntry{
			QID: rec.QID, Reason: rec.Reason, Fingerprint: rec.Fingerprint, Captured: rec.Captured,
			WallSeconds: rec.WallSeconds, AllocBytes: rec.AllocBytes,
			HeapBytes:      len(rec.HeapProfile),
			GoroutineBytes: len(rec.GoroutineProfile),
		})
	}
	return out
}

// FlightStats returns the (captures, rate-limit-suppressed) totals.
func (s *TraceStore) FlightStats() (captures, suppressed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.captures, s.suppressed
}
