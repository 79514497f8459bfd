package obs

import (
	"sync"
	"time"
)

// TraceRing retains the last N query traces plus a separate pinned log
// of tail-retained queries, so a latency spike seen in the histogram
// can be drilled into after the fact: GET /traces lists the index, GET
// /trace?id=<qid> returns the full span tree while it is retained.
//
// The ring and the pinned log are independent: a retained trace stays
// resolvable by ID even after ordinary traffic has lapped the ring.
type TraceRing struct {
	mu sync.Mutex
	// ring is a fixed-size circular buffer; next is the slot the next
	// PutRetained writes, wrapped indicates at least one full lap.
	ring    []*QueryTrace
	next    int
	wrapped bool
	// slow pins the traces the caller retained; bounded FIFO of
	// slowCap entries.
	slow    []*QueryTrace
	slowCap int
	// threshold is the slow-query budget in seconds (0 disables): it
	// flags index entries slow, the boundary included.
	threshold float64
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
	Query      string `json:"query"`
}

// NewTraceRing builds a ring retaining size recent traces and up to
// size pinned traces; index entries at or above slowThreshold seconds
// are flagged slow (0 disables). size must be >= 1.
func NewTraceRing(size int, slowThreshold float64) *TraceRing {
	if size < 1 {
		size = 1
	}
	return &TraceRing{
		ring:      make([]*QueryTrace, size),
		slowCap:   size,
		threshold: slowThreshold,
	}
}

// Threshold returns the slow-query threshold in seconds (0 = disabled).
func (r *TraceRing) Threshold() float64 { return r.threshold }

// PutRetained retains tr, evicting the oldest ring entry when full.
// The retention decision is made by the caller (slow, error, alloc
// breach, or per-fingerprint 1-in-N — see insights.Observatory), not
// by the ring's wall-time threshold. When retain is true the trace is
// additionally pinned past eviction with reason stamped as its
// TailReason; the pinned log keeps the newest slowCap traces.
func (r *TraceRing) PutRetained(tr *QueryTrace, retain bool, reason string) {
	if tr == nil {
		return
	}
	if retain {
		tr.TailReason = reason
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.putRingLocked(tr)
	if retain {
		r.pinLocked(tr)
	}
}

// putRingLocked writes tr into the circular buffer.
func (r *TraceRing) putRingLocked(tr *QueryTrace) {
	r.ring[r.next] = tr
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
}

// pinLocked appends tr to the bounded FIFO of pinned traces.
func (r *TraceRing) pinLocked(tr *QueryTrace) {
	r.slow = append(r.slow, tr)
	if len(r.slow) > r.slowCap {
		// FIFO: drop the oldest pinned trace.
		copy(r.slow, r.slow[1:])
		r.slow[len(r.slow)-1] = nil
		r.slow = r.slow[:len(r.slow)-1]
	}
}

// Get returns the retained trace with the given ID, searching the ring
// newest-first and then the slow log; nil when evicted or never seen.
func (r *TraceRing) Get(id string) *QueryTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.countLocked(); i++ {
		if tr := r.atLocked(i); tr.ID == id {
			return tr
		}
	}
	for i := len(r.slow) - 1; i >= 0; i-- {
		if r.slow[i].ID == id {
			return r.slow[i]
		}
	}
	return nil
}

// Len returns the number of traces currently retained in the ring.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.countLocked()
}

// countLocked is the retained ring entry count.
func (r *TraceRing) countLocked() int {
	if r.wrapped {
		return len(r.ring)
	}
	return r.next
}

// atLocked returns the i-th newest ring entry (0 = most recent).
func (r *TraceRing) atLocked(i int) *QueryTrace {
	idx := r.next - 1 - i
	if idx < 0 {
		idx += len(r.ring)
	}
	return r.ring[idx]
}

// Index lists retained traces newest-first: the ring, then any pinned
// slow traces that have already been evicted from it.
func (r *TraceRing) Index() []TraceIndexEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	inRing := make(map[string]bool, r.countLocked())
	out := make([]TraceIndexEntry, 0, r.countLocked()+len(r.slow))
	for i := 0; i < r.countLocked(); i++ {
		tr := r.atLocked(i)
		inRing[tr.ID] = true
		out = append(out, r.entryLocked(tr))
	}
	for i := len(r.slow) - 1; i >= 0; i-- {
		if !inRing[r.slow[i].ID] {
			out = append(out, r.entryLocked(r.slow[i]))
		}
	}
	return out
}

// Slow lists the pinned (tail-retained) traces newest-first.
func (r *TraceRing) Slow() []TraceIndexEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceIndexEntry, 0, len(r.slow))
	for i := len(r.slow) - 1; i >= 0; i-- {
		out = append(out, r.entryLocked(r.slow[i]))
	}
	return out
}

func (r *TraceRing) entryLocked(tr *QueryTrace) TraceIndexEntry {
	status := tr.Status
	if status == "" {
		status = "ok"
	}
	q := tr.Query
	if len(q) > 200 {
		q = q[:200] + "…"
	}
	return TraceIndexEntry{
		ID:          tr.ID,
		Start:       tr.Start,
		WallSeconds: tr.WallSeconds,
		Status:      status,
		Slow:        r.threshold > 0 && tr.WallSeconds >= r.threshold,
		Fingerprint: tr.Fingerprint,
		Retained:    tr.TailReason != "",
		TailReason:  tr.TailReason,
		Query:       q,
	}
}
