// Package udf implements the IDS user-defined-function machinery:
// a registry of statically registered (native Go) and dynamically
// loaded (script-module) functions, and the per-rank profiling store
// that drives query optimization. As in the paper (§2.4.1), each rank
// tracks per UDF: how many times it executed, its total execution
// time, and how many times a query expression was rejected because of
// its result.
package udf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ids/internal/expr"
)

// Func is a UDF implementation.
type Func func(args []expr.Value) (expr.Value, error)

// CostFn optionally declares the virtual execution cost in seconds of
// one call with the given arguments. UDFs wrapping expensive kernels
// (docking, DTBA) declare calibrated costs; cheap UDFs omit it and are
// charged measured wall time.
type CostFn func(args []expr.Value) float64

// entry is one registered UDF. Entries are immutable once published
// (MarkPure publishes a copy), so readers use them without a lock.
type entry struct {
	fn      Func
	cost    CostFn
	dynamic bool
	module  string
	// pure marks a referentially transparent UDF: identical arguments
	// always produce the identical result and declared cost. Pure UDFs
	// are memoized — the registry returns the stored result AND the
	// stored virtual cost on a hit, so the simulated clock, profiles
	// and udf_* metrics are byte-identical to re-execution while the
	// real CPU work is skipped.
	pure bool
}

// run executes the UDF on concrete arguments and returns its result
// plus the cost to charge: the declared virtual cost when there is a
// cost model, otherwise the measured wall time.
func (e *entry) run(args []expr.Value) (expr.Value, float64, error) {
	start := time.Now()
	out, err := e.fn(args)
	cost := time.Since(start).Seconds()
	if e.cost != nil {
		cost = e.cost(args)
	}
	return out, cost, err
}

// table is one immutable publication of the registry's functions.
// Calls read it through an atomic pointer and take no registry-wide
// lock; registration, MarkPure, reload and unload are rare and each
// publishes a fresh copy.
type table struct {
	entries map[string]*entry
	// gen counts memo invalidations (reload, unload). A miss remembers
	// the generation it started under and its store is dropped if the
	// table has moved on, so a slow call of a replaced implementation
	// cannot plant its result behind the invalidation.
	gen uint64
}

// keyBufPool recycles memo-key scratch buffers across calls (pooled as
// *[]byte so Get/Put themselves do not allocate).
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// memoMaxEntries bounds the memo table; inserts stop (lookups keep
// working) once the table is full, so a pathological argument stream
// cannot grow memory without bound. The bound is split evenly over the
// shards.
const (
	memoMaxEntries = 1 << 18
	memoShards     = 64
)

// memoShard is one slice of the memo table under its own lock, padded
// to a cache line so ranks probing different shards share nothing.
type memoShard struct {
	mu sync.RWMutex
	m  map[string]expr.Result
	_  [32]byte
}

// Registry holds the available UDFs. Statically registered functions
// cannot be replaced (they model CGE's load-time shared objects);
// dynamic functions belong to a module and can be reloaded, modelling
// the paper's dynamically imported Python modules.
//
// A registry serves one dictionary: memo keys embed dictionary IDs, so
// it must not be shared by engines over different dictionaries.
type Registry struct {
	mu  sync.Mutex // serializes publishers of tab
	tab atomic.Pointer[table]
	// memo caches pure-UDF results, keyed by name + encoded arguments
	// (see appendMemoKey) and sharded by a hash of the key. Typed maps
	// rather than a sync.Map: indexing a string-keyed map with
	// string(b) compiles to an allocation-free lookup, so a hit
	// performs zero heap allocations.
	memo     [memoShards]memoShard
	seed     maphash.Seed
	shardCap int // entries per shard; memoMaxEntries/memoShards outside tests
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{seed: maphash.MakeSeed(), shardCap: memoMaxEntries / memoShards}
	r.tab.Store(&table{entries: map[string]*entry{}})
	for i := range r.memo {
		r.memo[i].m = map[string]expr.Result{}
	}
	return r
}

// Registration errors.
var (
	ErrDuplicate = errors.New("udf: already registered")
	ErrUnknown   = errors.New("udf: unknown function")
	ErrStatic    = errors.New("udf: cannot replace static function")
)

// publish applies edit to a copy of the current table and makes the
// copy current. An edit that bumps gen invalidates the memo: the new
// generation is visible before any shard is emptied, so a store that
// still passes its generation check lands before the sweep reaches its
// shard.
func (r *Registry) publish(edit func(t *table) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.tab.Load()
	next := &table{entries: make(map[string]*entry, len(old.entries)+1), gen: old.gen}
	for name, e := range old.entries {
		next.entries[name] = e
	}
	if err := edit(next); err != nil {
		return err
	}
	r.tab.Store(next)
	if next.gen != old.gen {
		for i := range r.memo {
			sh := &r.memo[i]
			sh.mu.Lock()
			sh.m = map[string]expr.Result{}
			sh.mu.Unlock()
		}
	}
	return nil
}

// Register adds a static UDF. It fails if the name is taken.
func (r *Registry) Register(name string, fn Func) error {
	return r.RegisterWithCost(name, fn, nil)
}

// RegisterWithCost adds a static UDF with a declared cost model.
func (r *Registry) RegisterWithCost(name string, fn Func, cost CostFn) error {
	return r.publish(func(t *table) error {
		if _, ok := t.entries[name]; ok {
			return fmt.Errorf("%w: %s", ErrDuplicate, name)
		}
		t.entries[name] = &entry{fn: fn, cost: cost}
		return nil
	})
}

// RegisterDynamic adds or replaces a dynamic UDF belonging to module.
// The callable name is "module.method". Replacing a static name fails.
func (r *Registry) RegisterDynamic(module, method string, fn Func, cost CostFn) error {
	name := module + "." + method
	return r.publish(func(t *table) error {
		if e, ok := t.entries[name]; ok {
			if !e.dynamic {
				return fmt.Errorf("%w: %s", ErrStatic, name)
			}
			// Replacing an implementation invalidates memoized results.
			t.gen++
		}
		t.entries[name] = &entry{fn: fn, cost: cost, dynamic: true, module: module}
		return nil
	})
}

// ReplaceModule makes fns, by method name, module's dynamic UDFs in one
// publication, so a query binds all of one version of the module: never
// none of it, nor a mix. Functions of the module that fns lacks are
// removed. Replacing or removing any invalidates the memo once.
func (r *Registry) ReplaceModule(module string, fns map[string]Func) error {
	return r.publish(func(t *table) error {
		gen := t.gen
		for name, e := range t.entries {
			if e.dynamic && e.module == module {
				delete(t.entries, name)
				t.gen = gen + 1
			}
		}
		for method, fn := range fns {
			name := module + "." + method
			if _, ok := t.entries[name]; ok {
				return fmt.Errorf("%w: %s", ErrStatic, name)
			}
			t.entries[name] = &entry{fn: fn, dynamic: true, module: module}
		}
		return nil
	})
}

// MarkPure declares the named UDF referentially transparent, enabling
// memoization of its results. The declared cost model (if any) must
// also be a pure function of the arguments, since a memo hit replays
// the stored cost. Returns ErrUnknown for unregistered names.
func (r *Registry) MarkPure(name string) error {
	return r.publish(func(t *table) error {
		e, ok := t.entries[name]
		if !ok {
			return fmt.Errorf("%w: %s", ErrUnknown, name)
		}
		pure := *e
		pure.pure = true
		t.entries[name] = &pure
		return nil
	})
}

// appendMemoKey encodes a pure-UDF invocation — name plus one tagged
// field per argument — into dst. Concrete values are encoded by value.
// A dictionary ID is encoded as the ID itself when byID is set (the
// caller holds a resolver): the dictionary is append-only, so an ID
// names the same term for the life of the registry and the call is
// recognised without decoding it. Without a resolver the function
// would be handed the raw ID, which says nothing about the term; the
// bool is then false and the call is not memoized.
func appendMemoKey(dst []byte, name string, args []expr.Value, byID bool) ([]byte, bool) {
	b := append(dst, name...)
	for _, a := range args {
		b = append(b, 0, byte(a.Kind))
		switch a.Kind {
		case expr.KindFloat:
			u := math.Float64bits(a.Num)
			b = binary.LittleEndian.AppendUint64(b, u)
		case expr.KindString:
			b = binary.AppendUvarint(b, uint64(len(a.Str)))
			b = append(b, a.Str...)
		case expr.KindBool:
			if a.Bool {
				b = append(b, 1)
			}
		case expr.KindID:
			if !byID {
				return b, false
			}
			b = binary.LittleEndian.AppendUint64(b, uint64(a.ID))
		}
	}
	return b, true
}

// CallUDF invokes the named UDF on concrete arguments, for callers that
// hold no dictionary IDs.
func (r *Registry) CallUDF(name string, args []expr.Value) (expr.Value, float64, error) {
	t := r.tab.Load()
	return r.call(t, t.entries[name], name, args, nil)
}

// call runs entry e of table t (nil: name is unknown there) and returns
// its result plus the cost to charge. Arguments may be dictionary IDs;
// terms resolves them, in place, immediately before the function runs
// — which for a pure UDF is only on a memo miss. A hit is answered from
// the IDs alone.
func (r *Registry) call(t *table, e *entry, name string, args []expr.Value, terms expr.Resolver) (expr.Value, float64, error) {
	if e == nil {
		return expr.Null, 0, fmt.Errorf("%w: %s", ErrUnknown, name)
	}
	if !e.pure {
		expr.ResolveArgs(args, terms)
		return e.run(args)
	}
	// The key is built in a pooled buffer (string arguments such as
	// protein sequences outgrow any stack array) and looked up via the
	// non-allocating map-index string conversion: a memo hit costs zero
	// steady-state heap allocations. The string is materialized only on
	// a miss, when the result is stored.
	bp := keyBufPool.Get().(*[]byte)
	b, keyed := appendMemoKey((*bp)[:0], name, args, terms != nil)
	*bp = b
	if !keyed {
		keyBufPool.Put(bp)
		return e.run(args)
	}
	sh := &r.memo[maphash.Bytes(r.seed, b)%memoShards]
	sh.mu.RLock()
	hit, ok := sh.m[string(b)]
	ok = ok && r.tab.Load().gen == t.gen
	sh.mu.RUnlock()
	if ok {
		keyBufPool.Put(bp)
		return hit.V, hit.Cost, nil
	}
	key := string(b)
	keyBufPool.Put(bp)
	// An ID that resolves to Null may be assigned by a later update
	// (the CachedResolver rule): run on it, remember nothing under it.
	known := expr.ResolveArgs(args, terms)
	out, cost, err := e.run(args)
	if known && err == nil {
		sh.mu.Lock()
		if len(sh.m) < r.shardCap && r.tab.Load().gen == t.gen {
			sh.m[key] = expr.Result{V: out, Cost: cost}
		}
		sh.mu.Unlock()
	}
	return out, cost, err
}

// Callee is a UDF bound by name: it holds the entry its name had in the
// table it was bound under, for good. Every memo read checks that
// table's generation under the shard lock, so one callee never mixes
// answers of two implementations. A callee is read-only: the ranks of
// a query share it.
type Callee struct {
	r    *Registry
	name string
	t    *table
	e    *entry
}

// Binder binds names against one table of a registry (Registry.Binder).
type Binder struct {
	r *Registry
	t *table
}

// Binder returns a resolver that binds every name against the table
// current now. A query binds all its calls through one, so all its ranks
// run one version of each function, whatever is reloaded meanwhile.
func (r *Registry) Binder() Binder { return Binder{r, r.tab.Load()} }

// Bind implements expr.FuncResolver.
func (t Binder) Bind(name string) expr.Callee {
	return &Callee{r: t.r, name: name, t: t.t, e: t.t.entries[name]}
}

// Bind implements expr.FuncResolver against the current table.
func (r *Registry) Bind(name string) expr.Callee { return r.Binder().Bind(name) }

// Call implements expr.Callee.
func (c *Callee) Call(args []expr.Value, terms expr.Resolver) (expr.Value, float64, error) {
	return c.r.call(c.t, c.e, c.name, args, terms)
}

// Memoized reports whether the callee's calls are memoized (a pure UDF).
func (c *Callee) Memoized() bool { return c.e != nil && c.e.pure }

// AppendKey appends the memo key of a call on args to dst, or returns
// dst as it was when the call is not memoized by key (an ID without a
// resolver; see appendMemoKey).
func (c *Callee) AppendKey(dst []byte, args []expr.Value, byID bool) []byte {
	if b, ok := appendMemoKey(dst, c.name, args, byID); ok {
		return b
	}
	return dst
}

// Probe answers a batch of calls from the memo. Key i is
// keys[at[i]:at[i+1]]; an empty key is no call. The keys are grouped by
// shard and each shard is read under one read lock, so out[i] is key
// i's memoized answer, or has a null value where there is none. shard
// and order are scratch of len(out). Only a Memoized callee has answers;
// what the probe leaves unanswered is answered by Call.
func (c *Callee) Probe(keys []byte, at []int32, shard []uint8, order []int32, out []expr.Result) {
	var next [memoShards + 1]int32
	for i := range out {
		shard[i], out[i] = memoShards, expr.Result{}
		if at[i+1] > at[i] {
			shard[i] = uint8(maphash.Bytes(c.r.seed, keys[at[i]:at[i+1]]) % memoShards)
			next[shard[i]+1]++
		}
	}
	for s := 1; s <= memoShards; s++ {
		next[s] += next[s-1]
	}
	for i, s := range shard {
		if s < memoShards {
			order[next[s]] = int32(i)
			next[s]++
		}
	}
	// next[s] is now the end of shard s's run in order.
	start := int32(0)
	for s := range c.r.memo[:] {
		if start == next[s] {
			continue
		}
		sh := &c.r.memo[s]
		sh.mu.RLock()
		if c.r.tab.Load().gen == c.t.gen {
			for _, i := range order[start:next[s]] {
				out[i] = sh.m[string(keys[at[i]:at[i+1]])]
			}
		}
		sh.mu.RUnlock()
		start = next[s]
	}
}

var (
	_ expr.FuncResolver = (*Registry)(nil)
	_ expr.FuncResolver = Binder{}
)

// Stats is the per-UDF profiling record of one rank (paper §2.4.1).
type Stats struct {
	Execs        int64
	TotalSeconds float64
	Rejections   int64
}

// MeanSeconds returns the average seconds per execution, or 0.
func (s Stats) MeanSeconds() float64 {
	if s.Execs == 0 {
		return 0
	}
	return s.TotalSeconds / float64(s.Execs)
}

// Profiler is a UDF profiling store. Persistent per-rank profiles are
// read and merged into from many query goroutines, so all methods are
// safe for concurrent use. A profiler built with NewProfilerOver
// records locally (its records are the query's delta) while estimating
// over the base profile's accumulated history combined with its own —
// this is how concurrent queries profile without contending on the
// shared per-rank stores.
type Profiler struct {
	mu    sync.RWMutex
	stats map[string]*Stats
	// base, when set, contributes read-only history to the estimator
	// methods; it is never written through this profiler.
	base *Profiler
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler { return &Profiler{stats: map[string]*Stats{}} }

// NewProfilerOver returns a profiler that records into its own (empty)
// store but answers estimator queries from base's history plus its own
// records. Snapshot returns only the local records, so merging a
// query profiler back into its base never double-counts.
func NewProfilerOver(base *Profiler) *Profiler {
	return &Profiler{stats: map[string]*Stats{}, base: base}
}

// Lock and Unlock bracket a batch of additions to the records Stat
// returns: a FILTER batch takes the lock once and adds to each record in
// the order its calls were made.
func (p *Profiler) Lock()   { p.mu.Lock() }
func (p *Profiler) Unlock() { p.mu.Unlock() }

// Stat returns name's record, created on first use. Call it, and add
// to what it returns, only between Lock and Unlock.
func (p *Profiler) Stat(name string) *Stats {
	s, ok := p.stats[name]
	if !ok {
		s = &Stats{}
		p.stats[name] = s
	}
	return s
}

// EstimateCost implements expr.Estimator.
func (p *Profiler) EstimateCost(name string) (float64, bool) {
	s := p.Get(name)
	if s.Execs == 0 {
		return 0, false
	}
	return s.MeanSeconds(), true
}

// RejectRate implements expr.Estimator.
func (p *Profiler) RejectRate(name string) float64 {
	s := p.Get(name)
	if s.Execs == 0 {
		return 0
	}
	return float64(s.Rejections) / float64(s.Execs)
}

var _ expr.Estimator = (*Profiler)(nil)

// Get returns the stats for name, combining base history when present
// (zero value if never recorded).
func (p *Profiler) Get(name string) Stats {
	var out Stats
	if p.base != nil {
		out = p.base.Get(name)
	}
	p.mu.RLock()
	if s, ok := p.stats[name]; ok {
		out.Execs += s.Execs
		out.TotalSeconds += s.TotalSeconds
		out.Rejections += s.Rejections
	}
	p.mu.RUnlock()
	return out
}

// Snapshot returns a copy of the locally recorded stats. For a
// profiler built with NewProfilerOver this is the delta since the
// query started — exactly what Merge folds back into the base.
func (p *Profiler) Snapshot() map[string]Stats {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]Stats, len(p.stats))
	for name, s := range p.stats {
		out[name] = *s
	}
	return out
}

// Merge folds another profiler's snapshot into this one (used when
// merging query deltas into the persistent per-rank profiles and when
// aggregating rank profiles for reports).
func (p *Profiler) Merge(snap map[string]Stats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, s := range snap {
		cur, ok := p.stats[name]
		if !ok {
			cur = &Stats{}
			p.stats[name] = cur
		}
		cur.Execs += s.Execs
		cur.TotalSeconds += s.TotalSeconds
		cur.Rejections += s.Rejections
	}
}

// String renders the profile as a sorted table for logs.
func (p *Profiler) String() string {
	snap := p.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		s := snap[n]
		fmt.Fprintf(&sb, "%s: execs=%d total=%.3fs mean=%.4fs rejects=%d\n",
			n, s.Execs, s.TotalSeconds, s.MeanSeconds(), s.Rejections)
	}
	return sb.String()
}
