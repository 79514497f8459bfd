package ids

import (
	"fmt"
	"time"

	"ids/internal/dict"
	"ids/internal/plan"
	"ids/internal/sparql"
	"ids/internal/vecstore"
)

// rebuildStatsLocked swaps in fresh planner statistics: graph
// cardinalities plus per-store vector counts for SIMILAR selectivity.
// Caller holds the writer lock, or is NewEngine before e is shared.
func (e *Engine) rebuildStatsLocked() {
	st := plan.StatsFromGraph(e.Graph)
	if len(e.vectors) > 0 {
		st.Vectors = make(map[string]int, len(e.vectors))
		for name, vs := range e.vectors {
			st.Vectors[name] = vs.Len()
		}
	}
	e.stats.Store(st)
}

// SIMILAR execution support: the planner-visible kNN access path
// (plan.SimilarStep) runs here. The top-k search is deterministic — the
// store index is shared and the result is a function of (store, query,
// k, ef) — so the physical plan runs it once and every rank uses the
// hits: access mode keeps on each rank the hits whose subject triples
// its shard holds (kg.Graph.ShardOf), so a following subject-bound
// pattern probes that shard's index instead of a hash join, and semi
// mode filters each rank's stream partition against the full top-k key
// set.

// similarStore resolves the store a SIMILAR clause targets. An empty
// name selects the sole attached store. Caller holds the engine read
// lock.
func (e *Engine) similarStore(name string) (*vecstore.Store, error) {
	if name == "" {
		switch len(e.vectors) {
		case 0:
			return nil, fmt.Errorf("ids: SIMILAR requires an attached vector store")
		case 1:
			for _, vs := range e.vectors {
				return vs, nil
			}
		}
		return nil, fmt.Errorf("ids: SIMILAR must name a store (%d attached)", len(e.vectors))
	}
	vs, ok := e.vectors[name]
	if !ok {
		return nil, fmt.Errorf("ids: no vector store %q attached", name)
	}
	return vs, nil
}

// knnHits runs the top-k search for a SIMILAR clause, feeds the
// ids_vector_* metrics and maps the hit keys to dictionary IDs (IRI
// first, then literal). Hits without a graph term are dropped — they
// cannot join.
func (e *Engine) knnHits(sp sparql.SimilarPattern) ([]dict.ID, vecstore.SearchInfo, error) {
	vs, err := e.similarStore(sp.Store)
	if err != nil {
		return nil, vecstore.SearchInfo{}, err
	}
	q := sp.Vec
	if q == nil {
		if q, err = vs.Get(sp.Key); err != nil {
			return nil, vecstore.SearchInfo{}, fmt.Errorf("ids: SIMILAR anchor: %w", err)
		}
	}
	start := time.Now()
	hits, info, err := vs.SearchHNSW(q, sp.K, 0)
	if err != nil {
		return nil, vecstore.SearchInfo{}, err
	}
	e.met.vecSearchSeconds.Observe(time.Since(start).Seconds())
	e.met.vecVisited.Add(float64(info.Visited))
	ids := make([]dict.ID, 0, len(hits))
	for _, h := range hits {
		if id, ok := e.Graph.Dict.LookupIRI(h.Key); ok {
			ids = append(ids, id)
			continue
		}
		if id, ok := e.Graph.Dict.Lookup(dict.Term{Kind: dict.Literal, Value: h.Key}); ok {
			ids = append(ids, id)
		}
	}
	return ids, info, nil
}

// knnOwned returns the hits rank owns as subjects (access mode emits
// each hit once, on the rank whose shard holds its triples, so a
// subject-bound pattern can join it through that shard's index).
func (e *Engine) knnOwned(ids []dict.ID, rank int) []dict.ID {
	out := make([]dict.ID, 0, len(ids))
	for _, id := range ids {
		if e.Graph.ShardOf(id) == rank {
			out = append(out, id)
		}
	}
	return out
}

// knnKeepSet builds the semi-join membership set over all hits.
func knnKeepSet(ids []dict.ID) map[dict.ID]bool {
	keep := make(map[dict.ID]bool, len(ids))
	for _, id := range ids {
		keep[id] = true
	}
	return keep
}

// knnNote renders the EXPLAIN ANALYZE attribution for a kNN operator.
func knnNote(info vecstore.SearchInfo, semi bool) string {
	mode := "access"
	if semi {
		mode = "semi"
	}
	return fmt.Sprintf("index=%s visited=%d candidates=%d ef=%d mode=%s",
		info.Index, info.Visited, info.Candidates, info.Ef, mode)
}
