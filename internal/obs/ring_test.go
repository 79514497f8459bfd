package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func mkTrace(id string, wall float64) *QueryTrace {
	return &QueryTrace{ID: id, Query: "SELECT " + id, Start: time.Now(), WallSeconds: wall, Status: "ok"}
}

func TestTraceRingEvictionOrder(t *testing.T) {
	r := NewTraceRing(3, 0)
	for i := 1; i <= 5; i++ {
		r.PutRetained(mkTrace(fmt.Sprintf("q%d", i), 0.01), false, "")
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	idx := r.Index()
	// Newest first: q5, q4, q3; q1/q2 evicted.
	want := []string{"q5", "q4", "q3"}
	for i, w := range want {
		if idx[i].ID != w {
			t.Fatalf("index[%d] = %s, want %s", i, idx[i].ID, w)
		}
	}
	if r.Get("q1") != nil || r.Get("q2") != nil {
		t.Fatal("evicted traces still resolvable")
	}
	if r.Get("q4") == nil {
		t.Fatal("retained trace not resolvable")
	}
}

// The ring flags an index entry slow from its wall time alone, with the
// boundary counting as slow; pinning is the caller's verdict.
func TestTraceRingSlowBoundary(t *testing.T) {
	r := NewTraceRing(4, 0.5)
	r.PutRetained(mkTrace("fast", 0.499999), false, "")
	r.PutRetained(mkTrace("exact", 0.5), false, "")
	r.PutRetained(mkTrace("over", 0.7), false, "")
	for _, e := range r.Index() {
		if want := e.ID != "fast"; e.Slow != want {
			t.Fatalf("%s: slow = %v, want %v", e.ID, e.Slow, want)
		}
	}
	if n := len(r.Slow()); n != 0 {
		t.Fatalf("%d traces pinned without a retain verdict", n)
	}
}

func TestTraceRingSlowSurvivesEviction(t *testing.T) {
	r := NewTraceRing(2, 1.0)
	r.PutRetained(mkTrace("slow1", 2.0), true, "slow")
	r.PutRetained(mkTrace("a", 0.01), false, "")
	r.PutRetained(mkTrace("b", 0.01), false, "") // slow1 now lapped out of the ring
	tr := r.Get("slow1")
	if tr == nil {
		t.Fatal("retained trace must stay resolvable after ring eviction")
	}
	if tr.TailReason != "slow" {
		t.Fatalf("tail reason = %q, want slow", tr.TailReason)
	}
	// The index still lists it (via the pinned log), exactly once.
	n := 0
	for _, e := range r.Index() {
		if e.ID == "slow1" {
			n++
			if !e.Retained || !e.Slow {
				t.Fatalf("slow1 entry = %+v", e)
			}
		}
	}
	if n != 1 {
		t.Fatalf("slow1 listed %d times", n)
	}
}

// More pins than the pinned log holds drop the oldest pinned trace
// first: once ordinary traffic has lapped the ring, only the newest
// slowCap pins still resolve.
func TestTraceRingPinnedLogDropsOldestFirst(t *testing.T) {
	r := NewTraceRing(2, 0)
	for i := 1; i <= 3; i++ {
		r.PutRetained(mkTrace(fmt.Sprintf("p%d", i), 0.01), true, "sample")
	}
	r.PutRetained(mkTrace("a", 0.01), false, "")
	r.PutRetained(mkTrace("b", 0.01), false, "") // every pin lapped out of the ring
	pinned := r.Slow()
	if len(pinned) != 2 || pinned[0].ID != "p3" || pinned[1].ID != "p2" {
		t.Fatalf("pinned log = %+v, want p3, p2", pinned)
	}
	if r.Get("p1") != nil {
		t.Fatal("oldest pin survived overflow")
	}
	if r.Get("p2") == nil || r.Get("p3") == nil {
		t.Fatal("newer pins evicted")
	}
}

func TestTraceRingConcurrent(t *testing.T) {
	r := NewTraceRing(16, 0.001)
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				slow := i%10 == 0
				wall := 0.0001
				if slow {
					wall = 0.01
				}
				r.PutRetained(mkTrace(id, wall), slow, "slow")
				r.Get(id)
				if i%50 == 0 {
					r.Index()
					r.Slow()
				}
			}
		}(w)
	}
	wg.Wait()
	if r.Len() != 16 {
		t.Fatalf("len = %d", r.Len())
	}
	if n := len(r.Slow()); n != 16 {
		t.Fatalf("pinned = %d, want 16", n)
	}
	for _, e := range r.Index() {
		if e.ID == "" {
			t.Fatal("empty index entry")
		}
	}
}
