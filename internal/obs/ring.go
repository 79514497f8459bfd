package obs

import (
	"sync"
	"time"
)

// Store bounds: recent traces, pinned (tail-retained) traces, and
// profiled flight records.
const (
	recentTraces  = 64
	pinnedTraces  = 64
	flightRecords = 8
)

// ring is a bounded newest-first list: push overwrites the oldest
// entry once all len(buf) slots are full. Not synchronized.
type ring[T any] struct {
	buf  []T
	next int // slot the next push writes
	n    int // entries held
}

func newRing[T any](size int) ring[T] { return ring[T]{buf: make([]T, size)} }

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// at returns the i-th newest entry (0 = most recent), i < r.n.
func (r *ring[T]) at(i int) T {
	idx := r.next - 1 - i
	if idx < 0 {
		idx += len(r.buf)
	}
	return r.buf[idx]
}

// TraceStore is the one place query traces are kept after a query
// finishes, so a latency spike seen in a histogram can be drilled into
// after the fact. GET /traces reads it: the index, the slow list, one
// trace by ID, and the profiles kept for a budget breach.
//
// It holds three bounded newest-first lists under one mutex:
//   - recent: every trace, lapped by ordinary traffic;
//   - pinned: the traces the caller's retention verdict kept, so they
//     stay resolvable by ID after the recent list has moved on;
//   - profiled: flight records (the trace plus heap and goroutine
//     profiles) captured by Capture, at most one per second.
//
// A trace stays resolvable while any of the three lists holds it.
// The store decides nothing: which traces are pinned, which are slow
// and which get profiled is the caller's verdict (insights.Decision).
type TraceStore struct {
	mu       sync.Mutex
	recent   ring[*QueryTrace]
	pinned   ring[*QueryTrace]
	profiled ring[*FlightRecord]

	lastCapture time.Time
	// now is the capture clock (swapped in tests).
	now func() time.Time
}

// TraceIndexEntry is one row of the GET /traces listing.
type TraceIndexEntry struct {
	ID          string    `json:"id"`
	Start       time.Time `json:"start"`
	WallSeconds float64   `json:"wall_seconds"`
	Status      string    `json:"status"`
	Slow        bool      `json:"slow,omitempty"`
	Fingerprint string    `json:"fingerprint,omitempty"`
	// Retained/TailReason report the tail-sampling decision: retained
	// traces are pinned past ring eviction, with the reason(s) why.
	Retained   bool   `json:"retained,omitempty"`
	TailReason string `json:"tail_reason,omitempty"`
	// Capture is the flight recorder's reason ("latency", "alloc" or
	// "latency+alloc") while the query's profiles are kept, with the
	// sizes of its heap and goroutine profiles.
	Capture        string `json:"capture,omitempty"`
	HeapBytes      int    `json:"heap_profile_bytes,omitempty"`
	GoroutineBytes int    `json:"goroutine_profile_bytes,omitempty"`
	Query          string `json:"query"`
}

// NewTraceStore builds a store with the default bounds.
func NewTraceStore() *TraceStore {
	return newTraceStore(recentTraces, pinnedTraces, flightRecords)
}

func newTraceStore(recent, pinned, profiled int) *TraceStore {
	return &TraceStore{
		recent:   newRing[*QueryTrace](recent),
		pinned:   newRing[*QueryTrace](pinned),
		profiled: newRing[*FlightRecord](profiled),
		now:      time.Now,
	}
}

// Put stores tr in the recent list. A non-empty reason is the
// verdict's retention stamp: the trace is also pinned, with reason as
// its TailReason; slow marks a verdict that includes "slow".
func (s *TraceStore) Put(tr *QueryTrace, reason string, slow bool) {
	if tr == nil {
		return
	}
	tr.TailReason, tr.slow = reason, slow
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recent.push(tr)
	if reason != "" {
		s.pinned.push(tr)
	}
}

// Get returns the stored trace with the given ID, searching the recent
// list, then the pinned one, then the profiled one, newest first; nil
// when evicted from all three or never seen.
func (s *TraceStore) Get(id string) *QueryTrace {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tr := range s.traces() {
		if tr.ID == id {
			return tr
		}
	}
	return nil
}

// Len returns the number of traces in the recent list.
func (s *TraceStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recent.n
}

// Index lists stored traces newest-first: the recent list, then the
// pinned and profiled traces it has already lapped.
func (s *TraceStore) Index() []TraceIndexEntry {
	return s.list(false)
}

// Slow lists the stored traces whose verdict includes "slow",
// newest-first.
func (s *TraceStore) Slow() []TraceIndexEntry {
	return s.list(true)
}

func (s *TraceStore) list(slowOnly bool) []TraceIndexEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	trs := s.traces()
	out := make([]TraceIndexEntry, 0, len(trs))
	for _, tr := range trs {
		if !slowOnly || tr.slow {
			out = append(out, s.indexEntry(tr))
		}
	}
	return out
}

// traces returns each stored trace once, in Get's search order. s.mu
// must be held.
func (s *TraceStore) traces() []*QueryTrace {
	out := make([]*QueryTrace, 0, s.recent.n+s.pinned.n+s.profiled.n)
	seen := make(map[string]bool, cap(out))
	add := func(tr *QueryTrace) {
		if !seen[tr.ID] {
			seen[tr.ID] = true
			out = append(out, tr)
		}
	}
	for i := 0; i < s.recent.n; i++ {
		add(s.recent.at(i))
	}
	for i := 0; i < s.pinned.n; i++ {
		add(s.pinned.at(i))
	}
	for i := 0; i < s.profiled.n; i++ {
		add(s.profiled.at(i).Trace)
	}
	return out
}

// indexEntry renders tr as an index row. s.mu must be held.
func (s *TraceStore) indexEntry(tr *QueryTrace) TraceIndexEntry {
	status := tr.Status
	if status == "" {
		status = "ok"
	}
	q := tr.Query
	if len(q) > 200 {
		q = q[:200] + "…"
	}
	e := TraceIndexEntry{
		ID:          tr.ID,
		Start:       tr.Start,
		WallSeconds: tr.WallSeconds,
		Status:      status,
		Slow:        tr.slow,
		Fingerprint: tr.Fingerprint,
		Retained:    tr.TailReason != "",
		TailReason:  tr.TailReason,
		Query:       q,
	}
	if rec := s.record(tr.ID); rec != nil {
		e.Capture = rec.Reason
		e.HeapBytes = len(rec.HeapProfile)
		e.GoroutineBytes = len(rec.GoroutineProfile)
	}
	return e
}
