package vecstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ids/internal/vecstore/hnsw"
)

func TestSearchTieBreakByKey(t *testing.T) {
	s := mustStore(t, 2, Cosine)
	// Four keys with identical direction → identical cosine score.
	for _, key := range []string{"delta", "bravo", "alpha", "charlie"} {
		if err := s.Add(key, []float32{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	hits, err := s.Search([]float32{1, 0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "bravo", "charlie"}
	for i, w := range want {
		if hits[i].Key != w {
			t.Fatalf("tie order = %v, want %v", hits, want)
		}
	}
}

func TestUpsert(t *testing.T) {
	s := mustStore(t, 2, L2)
	created, err := s.Upsert("a", []float32{0, 0})
	if err != nil || !created {
		t.Fatalf("first upsert: created=%v err=%v", created, err)
	}
	created, err = s.Upsert("a", []float32{5, 5})
	if err != nil || created {
		t.Fatalf("second upsert: created=%v err=%v", created, err)
	}
	got, err := s.Get("a")
	if err != nil || got[0] != 5 {
		t.Fatalf("Get after overwrite = %v, %v", got, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", s.Len())
	}
	if _, err := s.Upsert("a", []float32{1}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim mismatch err = %v", err)
	}
}

func TestUpsertMaintainsHNSW(t *testing.T) {
	s := mustStore(t, 2, L2)
	randomFill(s, 60, 5)
	if err := s.EnableHNSW(hnsw.Config{M: 8, EfConstruction: 48, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	// New key through Upsert must be searchable via the index.
	if _, err := s.Upsert("island", []float32{50, 50}); err != nil {
		t.Fatal(err)
	}
	hits, info, err := s.SearchHNSW([]float32{50, 50}, 1, 32)
	if err != nil || info.Index != "hnsw" {
		t.Fatalf("info=%+v err=%v", info, err)
	}
	if hits[0].Key != "island" {
		t.Fatalf("nearest = %v", hits)
	}
	// Overwrite moves it; index must follow.
	if _, err := s.Upsert("island", []float32{-50, -50}); err != nil {
		t.Fatal(err)
	}
	hits, _, err = s.SearchHNSW([]float32{-50, -50}, 1, 32)
	if err != nil || hits[0].Key != "island" {
		t.Fatalf("after move: hits=%v err=%v", hits, err)
	}
}

func TestSearchHNSWFallsBackWithoutIndex(t *testing.T) {
	s := mustStore(t, 2, Cosine)
	_ = s.Add("a", []float32{1, 0})
	hits, info, err := s.SearchHNSW([]float32{1, 0}, 1, 0)
	if err != nil || len(hits) != 1 {
		t.Fatalf("hits=%v err=%v", hits, err)
	}
	if info.Index != "brute" || info.Visited != 1 {
		t.Fatalf("info = %+v", info)
	}
}

func TestSearchHNSWErrors(t *testing.T) {
	s := mustStore(t, 2, Cosine)
	if _, _, err := s.SearchHNSW([]float32{1, 0}, 1, 0); !errors.Is(err, ErrEmpty) {
		t.Fatalf("empty err = %v", err)
	}
	_ = s.Add("a", []float32{1, 0})
	if _, _, err := s.SearchHNSW([]float32{1}, 1, 0); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim err = %v", err)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := mustStore(t, 4, Cosine)
	randomFill(s, 80, 13)
	if err := s.EnableHNSW(hnsw.Config{M: 8, EfConstruction: 48, EfSearch: 40, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() || loaded.Dim() != s.Dim() || loaded.Metric() != s.Metric() {
		t.Fatalf("shape mismatch after load: len=%d dim=%d metric=%v",
			loaded.Len(), loaded.Dim(), loaded.Metric())
	}
	cfg, on := loaded.hnswCfg, loaded.hnswIdx != nil
	if !on || cfg.M != 8 || cfg.EfConstruction != 48 || cfg.EfSearch != 40 || cfg.Seed != 9 {
		t.Fatalf("hnsw config after load: on=%v cfg=%+v", on, cfg)
	}
	// Deterministic levels + identical insertion order → identical
	// search results on the reloaded store.
	rng := rand.New(rand.NewSource(77))
	q := make([]float32, 4)
	for trial := 0; trial < 5; trial++ {
		for j := range q {
			q[j] = float32(rng.NormFloat64())
		}
		a, _, err := s.SearchHNSW(q, 5, 32)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := loaded.SearchHNSW(q, 5, 32)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("result sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: reloaded store diverged at %d: %v vs %v", trial, i, a, b)
			}
		}
	}
}

func TestSnapshotRoundTripNoIndex(t *testing.T) {
	s := mustStore(t, 3, L2)
	_ = s.Add("x", []float32{1, 2, 3})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.hnswIdx != nil {
		t.Fatal("index enabled after loading index-free snapshot")
	}
	got, err := loaded.Get("x")
	if err != nil || got[1] != 2 {
		t.Fatalf("Get = %v, %v", got, err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("NOTAVEC0"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSaveSetLoadSet(t *testing.T) {
	a := mustStore(t, 4, Cosine)
	randomFill(a, 20, 11)
	if err := a.EnableHNSW(hnsw.Config{M: 4, EfConstruction: 16, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	b := mustStore(t, 3, L2)
	randomFill(b, 10, 12)
	var buf bytes.Buffer
	if err := SaveSet(&buf, map[string]*Store{"fp": a, "emb": b}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d stores", len(got))
	}
	ga, gb := got["fp"], got["emb"]
	if ga == nil || gb == nil {
		t.Fatalf("stores = %v", got)
	}
	if ga.Len() != 20 || ga.Metric() != Cosine || gb.Len() != 10 || gb.Metric() != L2 {
		t.Fatalf("loaded shapes: fp len %d metric %v, emb len %d metric %v",
			ga.Len(), ga.Metric(), gb.Len(), gb.Metric())
	}
	if ga.hnswIdx == nil {
		t.Fatal("fp lost its HNSW index")
	}
	q := []float32{1, 0, 0, 0}
	w, _, err := a.SearchHNSW(q, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := ga.SearchHNSW(q, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(w) != fmt.Sprint(g) {
		t.Fatalf("search diverged after container round trip:\n%v\n%v", w, g)
	}
	if _, err := LoadSet(bytes.NewReader([]byte("NOTAVECSET"))); err == nil {
		t.Fatal("garbage container accepted")
	}
}
