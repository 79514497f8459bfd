package cache

import (
	"errors"
	"fmt"
	"sync"

	"ids/internal/fam"
	"ids/internal/store"
)

// Tier identifies a cache storage tier.
type Tier int

// Cache tiers, fastest first.
const (
	TierDRAM Tier = iota
	TierSSD
)

func (t Tier) String() string {
	if t == TierDRAM {
		return "dram"
	}
	return "ssd"
}

// Location is one placement of a cached object.
type Location struct {
	Node int
	Tier Tier
}

// ErrMiss is a total miss: the object is in no tier and not in the
// backing stash — the caller must recompute (e.g. re-run docking).
var ErrMiss = errors.New("cache: total miss")

// Config sizes and parameterizes the cache.
type Config struct {
	Nodes       int
	DRAMPerNode int64
	SSDPerNode  int64
	Policy      string // "lru" (default), "lfu", "2q"
	Net         fam.NetModel
	// SSDLatency/SSDBandwidth model local NVMe access.
	SSDLatency   float64
	SSDBandwidth float64
}

// DefaultConfig returns a small two-node cache configuration.
func DefaultConfig() Config {
	return Config{
		Nodes:        2,
		DRAMPerNode:  64 << 20,
		SSDPerNode:   512 << 20,
		Policy:       "lru",
		Net:          fam.DefaultNet(),
		SSDLatency:   100e-6,
		SSDBandwidth: 3e9,
	}
}

// Stats counts cache outcomes.
type Stats struct {
	DRAMHitsLocal  int64
	DRAMHitsRemote int64
	SSDHits        int64
	StashHits      int64
	Puts           int64
	Spills         int64 // DRAM -> SSD demotions
	Evictions      int64 // dropped from SSD (still in stash)
	// PlacementErrors counts tier placements abandoned because of a
	// fabric fault. The object stays readable from the stash, so these
	// degrade locality, never correctness.
	PlacementErrors int64
}

type meta struct {
	hash      string
	locations []Location
}

type cacheNode struct {
	dram    Policy
	ssd     Policy
	ssdData map[string][]byte
	ssdUsed int64
	down    bool
}

// Cache is the globally shared client-side cache.
type Cache struct {
	mu      sync.Mutex
	cfg     Config
	fabric  *fam.FAM
	nodes   []*cacheNode
	objects map[string]*meta
	backing *store.Store
	stats   Stats
	// hook, when set, runs at the top of every Get/Put with the op name
	// ("cache.get"/"cache.put") and object name; a return >= 0 fails
	// that node before the operation proceeds, simulating node loss
	// mid-operation for the chaos harness.
	hook func(op, name string) int
}

// SetFaultHook wires a chaos hook invoked at the start of Get and Put;
// a returned node id >= 0 is failed (as by FailNode) before the
// operation runs, < 0 is a no-op. Call before concurrent use; nil
// removes it.
func (c *Cache) SetFaultHook(fn func(op, name string) int) {
	c.mu.Lock()
	c.hook = fn
	c.mu.Unlock()
}

// Fabric exposes the cache's FAM fabric so tests and the chaos harness
// can inject fabric-level faults (fam.SetFaultHook) or fail servers
// directly.
func (c *Cache) Fabric() *fam.FAM { return c.fabric }

// hookFailLocked runs the fault hook, failing the node it names.
func (c *Cache) hookFailLocked(op, name string) {
	if c.hook == nil {
		return
	}
	if id := c.hook(op, name); id >= 0 && id < len(c.nodes) {
		_ = c.failNodeLocked(id)
	}
}

// dramRegion is the FAM region holding all DRAM-tier objects.
const dramRegion = "cache-dram"

// New builds a cache over the given backing stash.
func New(cfg Config, backing *store.Store) (*Cache, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cache: need at least one node")
	}
	if backing == nil {
		return nil, fmt.Errorf("cache: nil backing store")
	}
	fabric := fam.New(cfg.Nodes, cfg.DRAMPerNode, cfg.Net)
	if err := fabric.CreateRegion(dramRegion, cfg.DRAMPerNode*int64(cfg.Nodes)); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, fabric: fabric, objects: map[string]*meta{}, backing: backing}
	for i := 0; i < cfg.Nodes; i++ {
		dp, err := NewPolicy(cfg.Policy)
		if err != nil {
			return nil, err
		}
		sp, err := NewPolicy(cfg.Policy)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &cacheNode{
			dram: dp, ssd: sp, ssdData: map[string][]byte{},
		})
	}
	return c, nil
}

// Nodes returns the cache node count.
func (c *Cache) Nodes() int { return len(c.nodes) }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ssdCost models one local-SSD access of n bytes.
func (c *Cache) ssdCost(n int) float64 {
	if c.cfg.SSDBandwidth <= 0 {
		return c.cfg.SSDLatency
	}
	return c.cfg.SSDLatency + float64(n)/c.cfg.SSDBandwidth
}

// dramItemName namespaces FAM items per node so an object may exist in
// several nodes' DRAM after relocation.
func dramItemName(node int, name string) string {
	return fmt.Sprintf("n%d/%s", node, name)
}

// hasLoc reports whether m records the location.
func (m *meta) hasLoc(l Location) bool {
	for _, x := range m.locations {
		if x == l {
			return true
		}
	}
	return false
}

func (m *meta) dropLoc(l Location) {
	out := m.locations[:0]
	for _, x := range m.locations {
		if x != l {
			out = append(out, x)
		}
	}
	m.locations = out
}

// Put stores data under name: write-through to the backing stash
// (authoritative copy), then placement into hintNode's DRAM tier with
// spill-to-SSD eviction. The meter accrues all modeled time.
func (c *Cache) Put(m *fam.Meter, name string, data []byte, hintNode int) error {
	hash, wcost, err := c.backing.Put(name, data)
	if err != nil {
		return err
	}
	meterAdd(m, wcost)

	c.mu.Lock()
	defer c.mu.Unlock()
	c.hookFailLocked("cache.put", name)
	c.stats.Puts++
	mt, ok := c.objects[name]
	if !ok {
		mt = &meta{}
		c.objects[name] = mt
	} else if mt.hash != hash {
		// Overwrite with new content: every existing tier copy holds
		// the old bytes and must never serve another read.
		c.invalidateLocked(name)
	}
	mt.hash = hash
	if hintNode < 0 || hintNode >= len(c.nodes) {
		hintNode = int(fam.ObjectID(name) % uint64(len(c.nodes)))
	}
	// The stash write above is the durable, authoritative copy; tier
	// placement is an optimization. A fabric fault here degrades
	// locality (the next Get repopulates), it must not fail the Put.
	if err := c.placeDRAMLocked(m, name, data, hintNode); err != nil {
		c.stats.PlacementErrors++
	}
	return nil
}

// placeDRAMLocked inserts data into node's DRAM, evicting (spilling to
// SSD) until it fits. Objects larger than the DRAM tier go straight to
// SSD.
// invalidateLocked drops every tier copy of name (fam DRAM items and
// SSD blocks), leaving the object stash-only. Down nodes have already
// had their locations dropped by failNodeLocked.
func (c *Cache) invalidateLocked(name string) {
	mt := c.objects[name]
	if mt == nil {
		return
	}
	for _, loc := range append([]Location{}, mt.locations...) {
		n := c.nodes[loc.Node]
		switch loc.Tier {
		case TierDRAM:
			if d, err := c.fabric.Lookup(dramRegion, dramItemName(loc.Node, name)); err == nil {
				_ = c.fabric.Deallocate(d)
			}
			n.dram.Remove(name)
		case TierSSD:
			n.ssdUsed -= int64(len(n.ssdData[name]))
			delete(n.ssdData, name)
			n.ssd.Remove(name)
		}
	}
	mt.locations = mt.locations[:0]
}

func (c *Cache) placeDRAMLocked(m *fam.Meter, name string, data []byte, nodeID int) error {
	n := c.nodes[nodeID]
	if n.down {
		return nil // cache insertion is best-effort on a down node
	}
	mt := c.objects[name]
	loc := Location{Node: nodeID, Tier: TierDRAM}
	if mt.hasLoc(loc) {
		// Refresh contents in place.
		d, err := c.fabric.Lookup(dramRegion, dramItemName(nodeID, name))
		if err == nil && d.Size == len(data) {
			return c.fabric.Put(m, d, 0, data, true)
		}
		// Size changed: drop and re-place.
		_ = c.fabric.Deallocate(d)
		n.dram.Remove(name)
		mt.dropLoc(loc)
	}
	if int64(len(data)) > c.cfg.DRAMPerNode {
		return c.placeSSDLocked(m, name, data, nodeID)
	}
	for {
		d, err := c.fabric.Allocate(dramRegion, dramItemName(nodeID, name), len(data), nodeID)
		if err == nil {
			if err := c.fabric.Put(m, d, 0, data, true); err != nil {
				// Never leave an allocated item holding garbage: the
				// next placement would find it by name and trust it.
				_ = c.fabric.Deallocate(d)
				return err
			}
			n.dram.Add(name)
			mt.locations = append(mt.locations, loc)
			return nil
		}
		if !errors.Is(err, fam.ErrNoCapacity) {
			return err
		}
		victim, ok := n.dram.Victim()
		if !ok {
			// Nothing to evict (object bigger than free space for
			// structural reasons): fall through to SSD.
			return c.placeSSDLocked(m, name, data, nodeID)
		}
		if err := c.spillLocked(m, victim, nodeID); err != nil {
			return err
		}
	}
}

// spillLocked demotes victim from node DRAM to node SSD. A fabric
// fault mid-spill cannot recover the victim's DRAM bytes, but the
// stash still holds the authoritative copy, so the victim is simply
// dropped (an eviction straight to stash) and the caller's placement
// continues.
func (c *Cache) spillLocked(m *fam.Meter, victim string, nodeID int) error {
	drop := func(d fam.Descriptor) error {
		_ = c.fabric.Deallocate(d)
		c.objects[victim].dropLoc(Location{Node: nodeID, Tier: TierDRAM})
		c.stats.Evictions++
		c.stats.PlacementErrors++
		return nil
	}
	d, err := c.fabric.Lookup(dramRegion, dramItemName(nodeID, victim))
	if err != nil {
		return drop(fam.Descriptor{})
	}
	data, err := c.fabric.Get(m, d, 0, d.Size, true)
	if err != nil {
		return drop(d)
	}
	if err := c.fabric.Deallocate(d); err != nil {
		return drop(d)
	}
	mt := c.objects[victim]
	mt.dropLoc(Location{Node: nodeID, Tier: TierDRAM})
	c.stats.Spills++
	return c.placeSSDLocked(m, victim, data, nodeID)
}

// placeSSDLocked inserts data into node's SSD tier, evicting entirely
// (backing store still holds it) until it fits.
func (c *Cache) placeSSDLocked(m *fam.Meter, name string, data []byte, nodeID int) error {
	n := c.nodes[nodeID]
	if int64(len(data)) > c.cfg.SSDPerNode {
		return nil // too large to cache; stash-only
	}
	mt := c.objects[name]
	loc := Location{Node: nodeID, Tier: TierSSD}
	if mt.hasLoc(loc) {
		n.ssdUsed += int64(len(data)) - int64(len(n.ssdData[name]))
		n.ssdData[name] = data
		meterAdd(m, c.ssdCost(len(data)))
		return nil
	}
	for n.ssdUsed+int64(len(data)) > c.cfg.SSDPerNode {
		victim, ok := n.ssd.Victim()
		if !ok {
			return nil
		}
		victimBytes := len(n.ssdData[victim])
		n.ssdUsed -= int64(victimBytes)
		delete(n.ssdData, victim)
		c.objects[victim].dropLoc(loc)
		c.stats.Evictions++
	}
	n.ssdData[name] = data
	n.ssdUsed += int64(len(data))
	n.ssd.Add(name)
	mt.locations = append(mt.locations, loc)
	meterAdd(m, c.ssdCost(len(data)))
	return nil
}

func meterAdd(m *fam.Meter, sec float64) {
	if m != nil {
		m.Seconds += sec
	}
}

// Get retrieves name for a reader on fromNode, searching local DRAM,
// remote DRAM, local SSD, remote SSD, then the backing stash (which
// repopulates the reader's DRAM). A total miss returns ErrMiss.
func (c *Cache) Get(m *fam.Meter, name string, fromNode int) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hookFailLocked("cache.get", name)
	mt, ok := c.objects[name]
	if ok {
		// Preference order: local DRAM, remote DRAM, local SSD,
		// remote SSD.
		best := -1
		score := func(l Location) int {
			s := 0
			if l.Tier == TierSSD {
				s += 2
			}
			if l.Node != fromNode {
				s++
			}
			return s
		}
		for i, l := range mt.locations {
			if c.nodes[l.Node].down {
				continue
			}
			if best < 0 || score(l) < score(mt.locations[best]) {
				best = i
			}
		}
		if best >= 0 {
			l := mt.locations[best]
			local := l.Node == fromNode
			if l.Tier == TierDRAM {
				d, err := c.fabric.Lookup(dramRegion, dramItemName(l.Node, name))
				if err == nil {
					data, err := c.fabric.Get(m, d, 0, d.Size, local)
					if err == nil {
						c.nodes[l.Node].dram.Touch(name)
						if local {
							c.stats.DRAMHitsLocal++
						} else {
							c.stats.DRAMHitsRemote++
						}
						return data, nil
					}
				}
				// Fabric lost it (failure race): fall through to stash.
			} else {
				data := c.nodes[l.Node].ssdData[name]
				if data != nil {
					c.nodes[l.Node].ssd.Touch(name)
					cost := c.ssdCost(len(data))
					if !local {
						cost += c.cfg.Net.Cost(len(data), false)
					}
					meterAdd(m, cost)
					c.stats.SSDHits++
					return data, nil
				}
			}
		}
	}
	// Disk stash fallback.
	data, rcost, err := c.backing.Get(name)
	if err == nil {
		meterAdd(m, rcost)
		c.stats.StashHits++
		if mt == nil {
			mt = &meta{hash: store.Hash(data)}
			c.objects[name] = mt
		}
		// Repopulate the reader's DRAM for future hits. Best-effort:
		// the stash read already succeeded, so a fabric fault here must
		// not turn a hit into a failure.
		if fromNode >= 0 && fromNode < len(c.nodes) {
			if err := c.placeDRAMLocked(m, name, data, fromNode); err != nil {
				c.stats.PlacementErrors++
			}
		}
		return data, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrMiss, name)
}

// WhereIs answers the locality query: every live location of name.
// Schedulers use this to co-locate computation with data (paper §8).
func (c *Cache) WhereIs(name string) []Location {
	c.mu.Lock()
	defer c.mu.Unlock()
	mt, ok := c.objects[name]
	if !ok {
		return nil
	}
	var out []Location
	for _, l := range mt.locations {
		if !c.nodes[l.Node].down {
			out = append(out, l)
		}
	}
	return out
}

// FailNode simulates losing a cache node: its DRAM and SSD contents
// vanish; backing copies remain, so later Gets repopulate.
func (c *Cache) FailNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failNodeLocked(id)
}

func (c *Cache) failNodeLocked(id int) error {
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cache: bad node %d", id)
	}
	n := c.nodes[id]
	n.down = true
	if err := c.fabric.FailServer(id); err != nil {
		return err
	}
	for name := range n.ssdData {
		c.objects[name].dropLoc(Location{Node: id, Tier: TierSSD})
	}
	for name, mt := range c.objects {
		_ = name
		mt.dropLoc(Location{Node: id, Tier: TierDRAM})
	}
	n.ssdData = map[string][]byte{}
	n.ssdUsed = 0
	dp, _ := NewPolicy(c.cfg.Policy)
	sp, _ := NewPolicy(c.cfg.Policy)
	n.dram, n.ssd = dp, sp
	return nil
}

// RecoverNode rejoins a failed node, empty.
func (c *Cache) RecoverNode(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id < 0 || id >= len(c.nodes) {
		return fmt.Errorf("cache: bad node %d", id)
	}
	c.nodes[id].down = false
	return c.fabric.RecoverServer(id)
}
