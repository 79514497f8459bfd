package ids

import (
	"context"
	"fmt"

	"ids/internal/cache"
	"ids/internal/exec"
	"ids/internal/fam"
	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/obs/insights"
	"ids/internal/plan"
)

// Result caching — the paper's §8 first next step realized: IDS
// internal artifacts (here, whole query results) are stashed in the
// global cache through the OpenFAM-backed layer instead of CGE's
// restrictive internal cache, so a repeated query skips execution
// entirely. Keys combine the query text with the graph identity
// (triple and term counts), since encoded tables hold dictionary IDs
// that are only meaningful against the same loaded graph.

// EnableResultCache attaches a global cache for query results and
// registers a collector that mirrors the cache's tier statistics into
// the engine's metrics registry at scrape time, so /metrics is the
// single source of truth for cache behaviour. Pass nil to disable.
func (e *Engine) EnableResultCache(c *cache.Cache) {
	e.mu.Lock()
	e.resultCache = c
	e.mu.Unlock()
	if c == nil {
		return
	}
	// Tier transitions (spills, evictions) narrate through the engine's
	// logger so `grep cache` on the log stream tells the demotion story.
	c.SetLogger(e.Logger())
	e.met.reg.AddCollector(func(r *obs.Registry) {
		st := c.Stats()
		r.Counter("cache_ops_total", "outcome", "dram_local").Set(float64(st.DRAMHitsLocal))
		r.Counter("cache_ops_total", "outcome", "dram_remote").Set(float64(st.DRAMHitsRemote))
		r.Counter("cache_ops_total", "outcome", "ssd").Set(float64(st.SSDHits))
		r.Counter("cache_ops_total", "outcome", "stash").Set(float64(st.StashHits))
		r.Counter("cache_ops_total", "outcome", "miss").Set(float64(st.Misses))
		r.Counter("cache_puts_total").Set(float64(st.Puts))
		r.Counter("cache_spills_total").Set(float64(st.Spills))
		r.Counter("cache_evictions_total").Set(float64(st.Evictions))
	})
}

// resultKey derives the cache object name of a query against the
// currently loaded graph; the caller holds the engine read lock so the
// graph identity and update epoch are a consistent snapshot.
func (e *Engine) resultKey(query string) string {
	ident := fmt.Sprintf("%s|t=%d|d=%d|u=%d", query, e.Graph.Len(), e.Graph.Dict.Len(), e.updates.Load())
	return fmt.Sprintf("qr/%016x", fam.ObjectID(ident))
}

// CachedQuery runs the query through the result cache: a hit decodes
// the stashed table (charging only the cache access to the simulated
// time); a miss executes normally and stashes the encoded result. The
// second return reports whether the result came from the cache.
//
// The whole key-derive / lookup / execute / stash sequence runs under
// one engine read lock, so an update can never interleave: the stashed
// result always matches the epoch baked into its key.
func (e *Engine) CachedQuery(qs string) (*Result, bool, error) {
	return e.CachedQueryCtx(context.Background(), qs)
}

// CachedQueryCtx is CachedQuery with a caller context carrying the qid
// and trace context (see QueryCtx).
func (e *Engine) CachedQueryCtx(ctx context.Context, qs string) (*Result, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.resultCache == nil {
		res, err := e.queryLocked(ctx, qs, e.tracing.Load())
		return res, false, err
	}
	key := e.resultKey(qs)
	var m fam.Meter
	if data, err := e.resultCache.Get(&m, key, 0); err == nil {
		tab, derr := exec.DecodeTable(data)
		if derr == nil {
			rep := &mpp.Report{
				Topology: e.Topo,
				Makespan: m.Seconds,
				Phases:   map[string]float64{"cache": m.Seconds},
				PhaseSum: map[string]float64{"cache": m.Seconds},
			}
			e.met.resultCacheHits.Inc()
			// Cache hits skip plan.Build, so the fingerprint is computed
			// from the query text here: the observatory's cache-hit rate
			// per shape only makes sense if hits land on the same row as
			// executions.
			res := &Result{Vars: tab.Vars, Rows: tab.Rows, Report: rep}
			res.Tail = e.observeWorkload(ctx, insights.Observation{
				Fingerprint: plan.FingerprintString(qs), Query: qs,
				Seconds: m.Seconds, Rows: len(res.Rows), CacheHit: true,
			})
			return res, true, nil
		}
		// Corrupt entry: fall through to recompute (and overwrite).
	}
	e.met.resultCacheMisses.Inc()
	res, err := e.queryLocked(ctx, qs, e.tracing.Load())
	if err != nil {
		return nil, false, err
	}
	tab := &exec.Table{Vars: res.Vars, Rows: res.Rows}
	if err := e.resultCache.Put(nil, key, tab.Encode(), 0); err != nil {
		// Placement is best-effort: the answer is computed and correct,
		// the next asker just recomputes it.
		e.met.resultCachePutErrors.Inc()
		e.Logger().WarnContext(ctx, "result cache placement failed", "key", key, "err", err)
	}
	return res, false, nil
}
