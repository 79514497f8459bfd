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
	s := newTraceStore(3, 3, 1)
	for i := 1; i <= 5; i++ {
		s.Put(mkTrace(fmt.Sprintf("q%d", i), 0.01), "", false)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	idx := s.Index()
	// Newest first: q5, q4, q3; q1/q2 evicted.
	want := []string{"q5", "q4", "q3"}
	for i, w := range want {
		if idx[i].ID != w {
			t.Fatalf("index[%d] = %s, want %s", i, idx[i].ID, w)
		}
	}
	if s.Get("q1") != nil || s.Get("q2") != nil {
		t.Fatal("evicted traces still resolvable")
	}
	if s.Get("q4") == nil {
		t.Fatal("retained trace not resolvable")
	}
}

// The store flags an entry slow from the verdict it was given, never
// from its wall time: a long trace without a slow verdict is not slow,
// and only slow-verdict pins are listed by Slow.
func TestTraceStoreSlowFromVerdict(t *testing.T) {
	s := newTraceStore(4, 4, 1)
	s.Put(mkTrace("long", 9), "", false)
	s.Put(mkTrace("sampled", 0.001), "sample", false)
	s.Put(mkTrace("slow", 0.001), "slow,sample", true)
	for _, e := range s.Index() {
		if want := e.ID == "slow"; e.Slow != want {
			t.Fatalf("%s: slow = %v, want %v", e.ID, e.Slow, want)
		}
	}
	if sl := s.Slow(); len(sl) != 1 || sl[0].ID != "slow" || !sl[0].Retained {
		t.Fatalf("Slow() = %+v, want just the slow-verdict pin", sl)
	}
}

func TestTraceRingSlowSurvivesEviction(t *testing.T) {
	s := newTraceStore(2, 2, 1)
	s.Put(mkTrace("slow1", 2.0), "slow", true)
	s.Put(mkTrace("a", 0.01), "", false)
	s.Put(mkTrace("b", 0.01), "", false) // slow1 now lapped out of the recent list
	tr := s.Get("slow1")
	if tr == nil {
		t.Fatal("retained trace must stay resolvable after ring eviction")
	}
	if tr.TailReason != "slow" {
		t.Fatalf("tail reason = %q, want slow", tr.TailReason)
	}
	// The index still lists it (via the pinned list), exactly once.
	n := 0
	for _, e := range s.Index() {
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

// More pins than the pinned list holds drop the oldest pinned trace
// first: once ordinary traffic has lapped the recent list, only the
// newest pins still resolve.
func TestTraceRingPinnedLogDropsOldestFirst(t *testing.T) {
	s := newTraceStore(2, 2, 1)
	for i := 1; i <= 3; i++ {
		s.Put(mkTrace(fmt.Sprintf("p%d", i), 0.01), "slow", true)
	}
	s.Put(mkTrace("a", 0.01), "", false)
	s.Put(mkTrace("b", 0.01), "", false) // every pin lapped out of the recent list
	pinned := s.Slow()
	if len(pinned) != 2 || pinned[0].ID != "p3" || pinned[1].ID != "p2" {
		t.Fatalf("pinned list = %+v, want p3, p2", pinned)
	}
	if s.Get("p1") != nil {
		t.Fatal("oldest pin survived overflow")
	}
	if s.Get("p2") == nil || s.Get("p3") == nil {
		t.Fatal("newer pins evicted")
	}
}

// The recent, pinned and profiled lists share one lock: writers,
// readers and captures race on all three.
func TestTraceRingConcurrent(t *testing.T) {
	s := newTraceStore(16, 16, 4)
	steppingClock(s, captureInterval)
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				slow := i%10 == 0
				tr := mkTrace(id, 0.0001)
				if slow {
					s.Put(tr, "slow", true)
				} else {
					s.Put(tr, "", false)
				}
				s.Get(id)
				if i%50 == 0 {
					s.Capture("latency", tr)
					s.Index()
					s.Slow()
					s.FlightRecord(id)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 16 {
		t.Fatalf("len = %d", s.Len())
	}
	// Every capture was of a slow trace: the 16 pinned ones, plus up to
	// 4 profiled ones the pinned list has lapped.
	if n := len(s.Slow()); n < 16 || n > 20 {
		t.Fatalf("slow = %d, want 16..20", n)
	}
	captured := 0
	for _, e := range s.Index() {
		if e.ID == "" {
			t.Fatal("empty index entry")
		}
		if e.Capture != "" {
			captured++
		}
	}
	if captured != 4 {
		t.Fatalf("profiled = %d, want 4", captured)
	}
}
