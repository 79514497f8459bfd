// Package fam implements an OpenFAM-shaped disaggregated-memory API:
// named regions of fabric-attached memory served by memory servers,
// with data items allocated inside regions and accessed by get/put.
// The paper's global cache uses OpenFAM as its RDMA transport; this
// package provides the same programming model over in-process memory
// servers with an alpha-beta network cost model, so callers can charge
// realistic virtual time for remote access.
package fam

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Errors returned by the FAM API.
var (
	ErrExists       = errors.New("fam: name already exists")
	ErrNotFound     = errors.New("fam: not found")
	ErrOutOfRange   = errors.New("fam: offset out of range")
	ErrNoCapacity   = errors.New("fam: insufficient capacity")
	ErrServerDown   = errors.New("fam: memory server unavailable")
	ErrInvalidSize  = errors.New("fam: invalid size")
	ErrRegionExists = errors.New("fam: region already exists")
)

// NetModel is the fabric cost model for remote memory access.
type NetModel struct {
	Latency   float64 // seconds per operation (one-sided RDMA verb)
	Bandwidth float64 // bytes per second
	// LocalLatency applies when client and server share a node.
	LocalLatency float64
}

// DefaultNet approximates Slingshot RDMA: 2 us verbs, 25 GB/s.
func DefaultNet() NetModel {
	return NetModel{Latency: 2e-6, Bandwidth: 25e9, LocalLatency: 2e-7}
}

// Cost returns the modeled seconds for transferring n bytes, local or
// remote.
func (m NetModel) Cost(n int, local bool) float64 {
	lat := m.Latency
	if local {
		lat = m.LocalLatency
	}
	if m.Bandwidth <= 0 {
		return lat
	}
	return lat + float64(n)/m.Bandwidth
}

// Meter accumulates modeled access time; nil meters are safe to pass.
type Meter struct {
	Seconds float64
}

func (m *Meter) add(sec float64) {
	if m != nil {
		m.Seconds += sec
	}
}

// Descriptor identifies an allocated data item, as in OpenFAM.
type Descriptor struct {
	Region string
	Name   string
	Server int
	Size   int
}

type item struct {
	data []byte
}

type server struct {
	mu       sync.Mutex
	id       int
	capacity int64
	used     int64
	items    map[string]*item // key: region/name
	down     bool
}

type region struct {
	size int64
	used int64
}

// FAM is the fabric: a set of memory servers plus the region/item
// namespace (the role OpenFAM's metadata service plays).
type FAM struct {
	mu      sync.Mutex
	servers []*server
	regions map[string]*region
	items   map[string]Descriptor // region/name -> descriptor
	net     NetModel
	nextSrv int

	// hook, when set, is consulted before every fabric operation with
	// the op name ("fam.get", "fam.put", "fam.alloc") and
	// the item key; a non-nil return fails the operation with that
	// error. This is the chaos harness's seam for delayed/failed RDMA
	// ops without a real fabric. Atomic so it can be (re)wired while
	// operations run.
	hook atomic.Pointer[func(op, key string) error]
}

// SetFaultHook installs fn as the fabric's fault hook; nil removes it.
func (f *FAM) SetFaultHook(fn func(op, key string) error) {
	if fn == nil {
		f.hook.Store(nil)
		return
	}
	f.hook.Store(&fn)
}

// checkFault consults the installed hook, if any.
func (f *FAM) checkFault(op, key string) error {
	if fn := f.hook.Load(); fn != nil {
		return (*fn)(op, key)
	}
	return nil
}

// New creates a fabric of n memory servers with capPerServer bytes
// each.
func New(n int, capPerServer int64, net NetModel) *FAM {
	if n <= 0 {
		n = 1
	}
	f := &FAM{
		regions: map[string]*region{},
		items:   map[string]Descriptor{},
		net:     net,
	}
	for i := 0; i < n; i++ {
		f.servers = append(f.servers, &server{
			id:       i,
			capacity: capPerServer,
			items:    map[string]*item{},
		})
	}
	return f
}

// CreateRegion declares a named region with a size quota.
func (f *FAM) CreateRegion(name string, size int64) error {
	if size <= 0 {
		return ErrInvalidSize
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.regions[name]; ok {
		return fmt.Errorf("%w: %s", ErrRegionExists, name)
	}
	f.regions[name] = &region{size: size}
	return nil
}

func itemKey(regionName, name string) string { return regionName + "/" + name }

// Allocate creates a data item of the given size in the region,
// placing it on the least-loaded live server (ties broken round-robin)
// unless preferServer >= 0 requests explicit placement.
func (f *FAM) Allocate(regionName, name string, size int, preferServer int) (Descriptor, error) {
	if size <= 0 {
		return Descriptor{}, ErrInvalidSize
	}
	if err := f.checkFault("fam.alloc", itemKey(regionName, name)); err != nil {
		return Descriptor{}, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	reg, ok := f.regions[regionName]
	if !ok {
		return Descriptor{}, fmt.Errorf("%w: region %s", ErrNotFound, regionName)
	}
	key := itemKey(regionName, name)
	if _, ok := f.items[key]; ok {
		return Descriptor{}, fmt.Errorf("%w: %s", ErrExists, key)
	}
	if reg.used+int64(size) > reg.size {
		return Descriptor{}, fmt.Errorf("%w: region %s", ErrNoCapacity, regionName)
	}
	srvID := -1
	if preferServer >= 0 {
		// Explicit placement is strict: the caller asked for this
		// server, so a full or down server is a capacity error, not a
		// silent fallback (the cache layer relies on this to trigger
		// its own eviction).
		if preferServer >= len(f.servers) {
			return Descriptor{}, fmt.Errorf("%w: server %d", ErrNotFound, preferServer)
		}
		s := f.servers[preferServer]
		if s.down {
			return Descriptor{}, fmt.Errorf("%w: server %d", ErrServerDown, preferServer)
		}
		if s.used+int64(size) > s.capacity {
			return Descriptor{}, fmt.Errorf("%w: server %d", ErrNoCapacity, preferServer)
		}
		srvID = preferServer
	}
	if srvID < 0 {
		var best *server
		for i := 0; i < len(f.servers); i++ {
			s := f.servers[(f.nextSrv+i)%len(f.servers)]
			if s.down || s.used+int64(size) > s.capacity {
				continue
			}
			if best == nil || s.used < best.used {
				best = s
			}
		}
		if best == nil {
			return Descriptor{}, ErrNoCapacity
		}
		srvID = best.id
		f.nextSrv = (srvID + 1) % len(f.servers)
	}
	s := f.servers[srvID]
	s.mu.Lock()
	s.items[key] = &item{data: make([]byte, size)}
	s.used += int64(size)
	s.mu.Unlock()
	reg.used += int64(size)
	d := Descriptor{Region: regionName, Name: name, Server: srvID, Size: size}
	f.items[key] = d
	return d, nil
}

// Lookup returns the descriptor of an existing item.
func (f *FAM) Lookup(regionName, name string) (Descriptor, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.items[itemKey(regionName, name)]
	if !ok {
		return Descriptor{}, fmt.Errorf("%w: %s", ErrNotFound, itemKey(regionName, name))
	}
	return d, nil
}

// Deallocate frees an item.
func (f *FAM) Deallocate(d Descriptor) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := itemKey(d.Region, d.Name)
	if _, ok := f.items[key]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	f.freeLocked(d)
	delete(f.items, key)
	return nil
}

func (f *FAM) freeLocked(d Descriptor) {
	if reg, ok := f.regions[d.Region]; ok {
		reg.used -= int64(d.Size)
	}
	s := f.servers[d.Server]
	s.mu.Lock()
	if _, ok := s.items[itemKey(d.Region, d.Name)]; ok {
		delete(s.items, itemKey(d.Region, d.Name))
		s.used -= int64(d.Size)
	}
	s.mu.Unlock()
}

// access fetches the item's storage, checking server health and
// bounds.
func (f *FAM) access(d Descriptor, off, n int) (*item, error) {
	if off < 0 || n < 0 || off+n > d.Size {
		return nil, ErrOutOfRange
	}
	if d.Server < 0 || d.Server >= len(f.servers) {
		return nil, ErrNotFound
	}
	s := f.servers[d.Server]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return nil, fmt.Errorf("%w: server %d", ErrServerDown, s.id)
	}
	it, ok := s.items[itemKey(d.Region, d.Name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s (lost on failure?)", ErrNotFound, d.Name)
	}
	return it, nil
}

// Put writes data into the item at offset. local marks a same-node
// access for the cost model.
func (f *FAM) Put(m *Meter, d Descriptor, off int, data []byte, local bool) error {
	if err := f.checkFault("fam.put", itemKey(d.Region, d.Name)); err != nil {
		return err
	}
	it, err := f.access(d, off, len(data))
	if err != nil {
		return err
	}
	s := f.servers[d.Server]
	s.mu.Lock()
	copy(it.data[off:], data)
	s.mu.Unlock()
	m.add(f.net.Cost(len(data), local))
	return nil
}

// Get reads n bytes from the item at offset.
func (f *FAM) Get(m *Meter, d Descriptor, off, n int, local bool) ([]byte, error) {
	if err := f.checkFault("fam.get", itemKey(d.Region, d.Name)); err != nil {
		return nil, err
	}
	it, err := f.access(d, off, n)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	s := f.servers[d.Server]
	s.mu.Lock()
	copy(out, it.data[off:off+n])
	s.mu.Unlock()
	m.add(f.net.Cost(n, local))
	return out, nil
}

// FailServer marks a server down and discards its contents (fabric
// memory is volatile; the paper repopulates from backing storage).
func (f *FAM) FailServer(id int) error {
	if id < 0 || id >= len(f.servers) {
		return ErrNotFound
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.servers[id]
	s.mu.Lock()
	s.down = true
	for key := range s.items {
		if d, ok := f.items[key]; ok {
			if reg, okr := f.regions[d.Region]; okr {
				reg.used -= int64(d.Size)
			}
			delete(f.items, key)
		}
		delete(s.items, key)
	}
	s.used = 0
	s.mu.Unlock()
	return nil
}

// RecoverServer brings a failed server back, empty.
func (f *FAM) RecoverServer(id int) error {
	if id < 0 || id >= len(f.servers) {
		return ErrNotFound
	}
	s := f.servers[id]
	s.mu.Lock()
	s.down = false
	s.mu.Unlock()
	return nil
}

// ObjectID computes the 64-bit object ID of a name — the hash/ID
// helper the paper's TR-Cache C API exposes for addressing cached
// objects.
func ObjectID(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}
