package ids

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestConcurrentQueriesAndUpdates is the -race stress test of the
// engine's snapshot isolation: query workers hammer the HTTP endpoint
// while update workers insert disjoint triples through it. Every
// update must land (no lost updates under the writer lock) and every
// query must see an internally consistent snapshot.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	e := newEngine(t, 4)
	// A queue deep enough that the query workers never overflow it;
	// shedding behavior is tested separately below.
	s := NewServerConfig(e, ServerConfig{Admission: AdmissionConfig{MaxInFlight: 4, MaxQueue: 64, QueueTimeout: 30 * time.Second}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	const (
		queryWorkers  = 4
		queriesEach   = 8
		updateWorkers = 2
		updatesEach   = 5
	)
	var wg sync.WaitGroup
	errCh := make(chan error, queryWorkers*queriesEach+updateWorkers*updatesEach)
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				resp, err := c.Query(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n`)
				if err != nil {
					errCh <- err
					return
				}
				// The seed graph has 5 names and no update touches
				// them: every snapshot must agree.
				if len(resp.Rows) != 5 {
					errCh <- fmt.Errorf("query saw %d name rows, want 5", len(resp.Rows))
					return
				}
			}
		}()
	}
	for w := 0; w < updateWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < updatesEach; i++ {
				u := fmt.Sprintf(`INSERT DATA { <http://x/u%d_%d> <http://x/marker> "m" . }`, w, i)
				res, err := c.Update(u)
				if err != nil {
					errCh <- err
					return
				}
				if res.Applied != 1 {
					errCh <- fmt.Errorf("update %d/%d applied %d triples", w, i, res.Applied)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// No lost updates: every inserted marker triple is visible.
	resp, err := c.Query(`SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/marker> ?m . }`)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d", updateWorkers*updatesEach)
	if len(resp.Rows) != 1 || resp.Rows[0][0] != want {
		t.Fatalf("marker count = %v, want %s", resp.Rows, want)
	}
}

// TestAdmissionQueueFullReturns429 pins the shedding path: with one
// slot held and no queue, the next query is rejected immediately with
// 429 and a Retry-After hint the client surfaces as OverloadedError.
func TestAdmissionQueueFullReturns429(t *testing.T) {
	e := newEngine(t, 2)
	s := NewServerConfig(e, ServerConfig{Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: -1}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	// Occupy the only slot directly, then hit the endpoint.
	if _, _, err := s.adm.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
	var oe *OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("expected OverloadedError, got %v", err)
	}
	if oe.RetryAfter < time.Second {
		t.Fatalf("Retry-After hint = %s", oe.RetryAfter)
	}
	if v := e.Metrics().Counter("ids_admission_rejected_total", "reason", "queue_full").Value(); v != 1 {
		t.Fatalf("queue_full rejections = %v", v)
	}

	// Releasing the slot restores service.
	s.adm.release(0)
	if _, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`); err != nil {
		t.Fatal(err)
	}
}

// TestAdmissionQueueTimeoutReturns429 pins the timeout path: a query
// that waits in the queue longer than QueueTimeout is shed.
func TestAdmissionQueueTimeoutReturns429(t *testing.T) {
	e := newEngine(t, 2)
	s := NewServerConfig(e, ServerConfig{Admission: AdmissionConfig{MaxInFlight: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	if _, _, err := s.adm.admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release(0)
	start := time.Now()
	_, err := c.Query(`SELECT ?s WHERE { ?s <http://x/name> ?n . }`)
	if oe := (*OverloadedError)(nil); !errors.As(err, &oe) {
		t.Fatalf("expected OverloadedError after queue timeout, got %v", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("shed after %s, before the queue timeout", waited)
	}
	if v := e.Metrics().Counter("ids_admission_rejected_total", "reason", "timeout").Value(); v != 1 {
		t.Fatalf("timeout rejections = %v", v)
	}
}
