package cache

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ids/internal/fam"
	"ids/internal/store"
)

func newCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, backing)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 2
	cfg.DRAMPerNode = 1 << 10 // 1 KiB DRAM per node to force spills
	cfg.SSDPerNode = 1 << 14
	return cfg
}

func TestPutGetLocalDRAM(t *testing.T) {
	c := newCache(t, smallConfig())
	var m fam.Meter
	data := []byte("vina output for ligand 1")
	if err := c.Put(&m, "dock/1", data, 0); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(&m, "dock/1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q", got)
	}
	st := c.Stats()
	if st.DRAMHitsLocal != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRemoteDRAMHitCostsMore(t *testing.T) {
	c := newCache(t, smallConfig())
	if err := c.Put(nil, "obj", []byte("payload-payload"), 0); err != nil {
		t.Fatal(err)
	}
	var local, remote fam.Meter
	if _, err := c.Get(&local, "obj", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(&remote, "obj", 1); err != nil {
		t.Fatal(err)
	}
	if remote.Seconds <= local.Seconds {
		t.Fatalf("remote %g <= local %g", remote.Seconds, local.Seconds)
	}
	st := c.Stats()
	if st.DRAMHitsLocal != 1 || st.DRAMHitsRemote != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSpillToSSD(t *testing.T) {
	c := newCache(t, smallConfig()) // 1 KiB DRAM
	// Three 400-byte objects on node 0: the third insert must spill
	// the first to SSD.
	for i := 0; i < 3; i++ {
		if err := c.Put(nil, fmt.Sprintf("o%d", i), make([]byte, 400), 0); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Spills == 0 {
		t.Fatalf("no spills recorded: %+v", st)
	}
	locs := c.WhereIs("o0")
	if len(locs) != 1 || locs[0].Tier != TierSSD {
		t.Fatalf("o0 locations = %v, want SSD", locs)
	}
	// o0 still retrievable (SSD hit).
	if _, err := c.Get(nil, "o0", 0); err != nil {
		t.Fatal(err)
	}
	if c.Stats().SSDHits != 1 {
		t.Fatalf("stats = %+v", c.Stats())
	}
}

func TestSSDEvictionFallsBackToStash(t *testing.T) {
	cfg := smallConfig()
	cfg.SSDPerNode = 1 << 10 // tiny SSD too
	c := newCache(t, cfg)
	for i := 0; i < 8; i++ {
		if err := c.Put(nil, fmt.Sprintf("o%d", i), make([]byte, 400), 0); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatalf("no SSD evictions: %+v", c.Stats())
	}
	// Everything is still retrievable via the stash.
	for i := 0; i < 8; i++ {
		if _, err := c.Get(nil, fmt.Sprintf("o%d", i), 0); err != nil {
			t.Fatalf("o%d: %v", i, err)
		}
	}
	if c.Stats().StashHits == 0 {
		t.Fatalf("no stash hits: %+v", c.Stats())
	}
}

func TestStashRepopulatesDRAM(t *testing.T) {
	cfg := smallConfig()
	cfg.Policy = "lru" // pin victim selection so the eviction walk below is exact
	cfg.SSDPerNode = 600
	c := newCache(t, cfg)
	// Force o0 out of all tiers. Under LRU this is fully determined:
	// 1 KiB DRAM holds two 400-byte objects and the 600-byte SSD holds
	// one, so each insert past the second spills the oldest DRAM object
	// to SSD, which in turn evicts the SSD's previous occupant to
	// stash-only. After o0..o5, DRAM = {o4,o5}, SSD = {o3}, and o0 is
	// in no tier.
	for i := 0; i < 6; i++ {
		if err := c.Put(nil, fmt.Sprintf("o%d", i), make([]byte, 400), 0); err != nil {
			t.Fatal(err)
		}
	}
	if locs := c.WhereIs("o0"); len(locs) != 0 {
		t.Fatalf("o0 should have been evicted from every tier, still at %v", locs)
	}
	if _, err := c.Get(nil, "o0", 1); err != nil {
		t.Fatal(err)
	}
	// After the stash read, node 1's DRAM must hold it.
	locs := c.WhereIs("o0")
	found := false
	for _, l := range locs {
		if l == (Location{Node: 1, Tier: TierDRAM}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("repopulation failed: %v", locs)
	}
}

func TestTotalMiss(t *testing.T) {
	c := newCache(t, smallConfig())
	if _, err := c.Get(nil, "never-put", 0); !errors.Is(err, ErrMiss) {
		t.Fatalf("err = %v", err)
	}
	// A total miss is errors.Is(err, ErrMiss) and counts as no hit.
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("stats = %+v, want none", s)
	}
}

func TestNodeFailureAndRepopulation(t *testing.T) {
	c := newCache(t, smallConfig())
	if err := c.Put(nil, "obj", []byte("survives in stash"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if locs := c.WhereIs("obj"); len(locs) != 0 {
		t.Fatalf("locations after failure = %v", locs)
	}
	// Get from the surviving node repopulates from the stash.
	got, err := c.Get(nil, "obj", 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives in stash" {
		t.Fatalf("Get = %q", got)
	}
	if err := c.RecoverNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(nil, "after", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if len(c.WhereIs("after")) == 0 {
		t.Fatal("recovered node rejected placement")
	}
}

func TestPutUpdatesContent(t *testing.T) {
	c := newCache(t, smallConfig())
	if err := c.Put(nil, "k", []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(nil, "k", []byte("v2-longer"), 0); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(nil, "k", 0)
	if err != nil || string(got) != "v2-longer" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if h := c.objects["k"].hash; h != store.Hash([]byte("v2-longer")) {
		t.Fatal("hash not updated")
	}
}

func TestOversizedObjectGoesToStashOnly(t *testing.T) {
	cfg := smallConfig()
	c := newCache(t, cfg)
	big := make([]byte, int(cfg.SSDPerNode)+1)
	if err := c.Put(nil, "big", big, 0); err != nil {
		t.Fatal(err)
	}
	if locs := c.WhereIs("big"); len(locs) != 0 {
		t.Fatalf("oversized object cached at %v", locs)
	}
	got, err := c.Get(nil, "big", 0)
	if err != nil || len(got) != len(big) {
		t.Fatalf("stash get: %d bytes, %v", len(got), err)
	}
}

func TestTierOrderingCosts(t *testing.T) {
	// DRAM hit must be cheaper than SSD hit must be cheaper than
	// stash.
	cfg := smallConfig()
	cfg.Policy = "lru" // pin victim selection: "a" is the LRU entry when "c" arrives
	c := newCache(t, cfg)
	payload := make([]byte, 512)
	if err := c.Put(nil, "a", payload, 0); err != nil {
		t.Fatal(err)
	}
	var dram fam.Meter
	if _, err := c.Get(&dram, "a", 0); err != nil {
		t.Fatal(err)
	}
	// Push "a" to SSD by filling DRAM: 1 KiB holds "a"+"b"; inserting
	// "c" must evict the least-recently-used entry, which is "a" ("b"
	// was inserted, hence touched, after a's Get).
	if err := c.Put(nil, "b", payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(nil, "c", payload, 0); err != nil {
		t.Fatal(err)
	}
	if locs := c.WhereIs("a"); len(locs) != 1 || locs[0] != (Location{Node: 0, Tier: TierSSD}) {
		t.Fatalf("a should have spilled to node 0 SSD, at %v", locs)
	}
	var ssd fam.Meter
	if _, err := c.Get(&ssd, "a", 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().SSDHits; got != 1 {
		t.Fatalf("SSD hits = %d, want 1", got)
	}
	var stash fam.Meter
	if _, err := c.Get(&stash, "never-cached-direct", 0); err == nil {
		t.Fatal("expected miss")
	}
	stashCost := store.DefaultCost().Cost(len(payload))
	if !(dram.Seconds < ssd.Seconds && ssd.Seconds < stashCost) {
		t.Fatalf("tier costs out of order: dram=%g ssd=%g stash=%g",
			dram.Seconds, ssd.Seconds, stashCost)
	}
}

func TestFaultHookNodeLossMidGet(t *testing.T) {
	// Node loss injected at the top of a Get must still produce the
	// correct bytes via the stash fallback — the chaos harness's fourth
	// invariant, in miniature.
	c := newCache(t, smallConfig())
	if err := c.Put(nil, "obj", []byte("authoritative"), 0); err != nil {
		t.Fatal(err)
	}
	fired := 0
	c.SetFaultHook(func(op, name string) int {
		if op == "cache.get" && name == "obj" && fired == 0 {
			fired++
			return 0 // lose node 0, which holds obj's DRAM copy
		}
		return -1
	})
	got, err := c.Get(nil, "obj", 0)
	if err != nil || string(got) != "authoritative" {
		t.Fatalf("Get under node loss = %q, %v", got, err)
	}
	if fired != 1 {
		t.Fatalf("hook fired %d times", fired)
	}
	if c.Stats().StashHits == 0 {
		t.Fatalf("expected stash fallback, stats = %+v", c.Stats())
	}
	// The fallback repopulated node 0 (it was failed, so placement was
	// best-effort); a second Get must succeed either way.
	if got, err := c.Get(nil, "obj", 0); err != nil || string(got) != "authoritative" {
		t.Fatalf("second Get = %q, %v", got, err)
	}
}

func TestFabricFaultDuringPutIsBestEffort(t *testing.T) {
	// A fabric fault during tier placement must not fail the Put: the
	// stash write already happened, so the object stays readable.
	c := newCache(t, smallConfig())
	c.Fabric().SetFaultHook(func(op, key string) error {
		if op == "fam.put" {
			return fam.ErrServerDown
		}
		return nil
	})
	if err := c.Put(nil, "obj", []byte("stash-only"), 0); err != nil {
		t.Fatalf("Put with fabric fault: %v", err)
	}
	if c.Stats().PlacementErrors == 0 {
		t.Fatalf("placement error not counted: %+v", c.Stats())
	}
	c.Fabric().SetFaultHook(nil)
	got, err := c.Get(nil, "obj", 0)
	if err != nil || string(got) != "stash-only" {
		t.Fatalf("Get = %q, %v", got, err)
	}
}

func TestConfigValidation(t *testing.T) {
	backing, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Nodes: 0}, backing); err == nil {
		t.Fatal("zero nodes accepted")
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Fatal("nil backing accepted")
	}
	cfg := DefaultConfig()
	cfg.Policy = "bogus"
	if _, err := New(cfg, backing); err == nil {
		t.Fatal("bogus policy accepted")
	}
}
