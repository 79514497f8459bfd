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
	Reason string // "latency", "alloc", or "latency+alloc"
	// Trace is the offending query's span trace.
	Trace *QueryTrace
	// HeapProfile is a pprof heap snapshot (protobuf, debug=0 — feed it
	// to `go tool pprof`). GoroutineProfile is the human-readable
	// goroutine dump (debug=1). Both are served raw by
	// GET /traces?id=<qid>&artifact=heap|goroutine.
	HeapProfile      []byte
	GoroutineProfile []byte
}

// Capture records one budget breach of tr: it snapshots the heap and
// goroutine profiles and keeps them with the trace. Returns false when
// the capture was suppressed by the rate limit.
func (s *TraceStore) Capture(reason string, tr *QueryTrace) bool {
	s.mu.Lock()
	now := s.now()
	if !s.lastCapture.IsZero() && now.Sub(s.lastCapture) < captureInterval {
		s.mu.Unlock()
		return false
	}
	s.lastCapture = now
	s.mu.Unlock()

	// Profile collection happens outside the lock: WriteTo stops the
	// world briefly and can take milliseconds on big heaps.
	var heap, gor bytes.Buffer
	if p := pprof.Lookup("heap"); p != nil {
		_ = p.WriteTo(&heap, 0)
	}
	if p := pprof.Lookup("goroutine"); p != nil {
		_ = p.WriteTo(&gor, 1)
	}
	rec := &FlightRecord{Reason: reason, Trace: tr, HeapProfile: heap.Bytes(), GoroutineProfile: gor.Bytes()}

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
	return s.record(qid)
}

// record is FlightRecord with s.mu held.
func (s *TraceStore) record(qid string) *FlightRecord {
	for i := 0; i < s.profiled.n; i++ {
		if rec := s.profiled.at(i); rec.Trace.ID == qid {
			return rec
		}
	}
	return nil
}
