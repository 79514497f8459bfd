package store

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
)

func openStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openStore(t)
	data := []byte("docking output: affinity -7.3 kcal/mol")
	hash, cost, err := s.Put("dock/P29274/CCO", data)
	if err != nil {
		t.Fatal(err)
	}
	if hash == "" || cost <= 0 {
		t.Fatalf("hash=%q cost=%f", hash, cost)
	}
	got, rcost, err := s.Get("dock/P29274/CCO")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) || rcost <= 0 {
		t.Fatalf("Get = %q cost=%f", got, rcost)
	}
}

func TestGetMissing(t *testing.T) {
	s := openStore(t)
	if _, _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplaceMapping(t *testing.T) {
	s := openStore(t)
	_, _, err := s.Put("k", []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := s.Put("k", []byte("v2"))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("k")
	if err != nil || string(got) != "v2" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if h := s.index["k"]; h != h2 {
		t.Fatal("index hash stale")
	}
}

func TestContentDeduplication(t *testing.T) {
	s := openStore(t)
	h1, _, _ := s.Put("a", []byte("same"))
	h2, _, _ := s.Put("b", []byte("same"))
	if h1 != h2 {
		t.Fatal("same content, different hashes")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Put("persist", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s2.Get("persist")
	if err != nil || string(got) != "payload" {
		t.Fatalf("reopened Get = %q, %v", got, err)
	}
}

func TestCostModelScalesWithSize(t *testing.T) {
	c := DefaultCost()
	small := c.Cost(1024)
	large := c.Cost(100 << 20)
	if large <= small {
		t.Fatal("cost does not scale with size")
	}
	if small < c.Latency {
		t.Fatal("cost below latency floor")
	}
}

func TestHashStable(t *testing.T) {
	if Hash([]byte("x")) != Hash([]byte("x")) {
		t.Fatal("hash unstable")
	}
	if Hash([]byte("x")) == Hash([]byte("y")) {
		t.Fatal("hash collision on trivial input")
	}
}

func BenchmarkPut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Put("bench", data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStorePutConcurrentIdentical is the tier-1 flake's regression
// test: Puts of identical content race outside the store lock, and with
// a temporary name shared per hash the loser's rename found its source
// already gone (run at -race -cpu 4 -count=20).
func TestStorePutConcurrentIdentical(t *testing.T) {
	s := openStore(t)
	data := bytes.Repeat([]byte("one encoded query result "), 200)
	const workers = 32
	errs := make(chan error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Half the workers share a name, half bring their own: the
			// object write races either way.
			name := "qr/shared"
			if w%2 == 1 {
				name = fmt.Sprintf("qr/%d", w)
			}
			if _, _, err := s.Put(name, data); err != nil {
				errs <- err
			}
		}(w)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent identical Put: %v", err)
	}
	got, _, err := s.Get("qr/shared")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get after the race: %d bytes, %v", len(got), err)
	}
	left, err := filepath.Glob(filepath.Join(s.dir, "objects", "*.tmp"))
	if err != nil || len(left) != 0 {
		t.Fatalf("temporary files left behind: %v, %v", left, err)
	}
}
