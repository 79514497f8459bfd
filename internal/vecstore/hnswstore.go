package vecstore

import (
	"ids/internal/vecstore/hnsw"
)

// HNSW integration: EnableHNSW builds a graph index over the store's
// current contents and keeps it maintained incrementally by Add and
// Upsert; SearchHNSW is the approximate top-k search behind the
// engine's SIMILAR access path. Distances flow through storeDist,
// which negates the store's uniform higher-is-better score, so one
// index implementation serves all three metrics.

// SearchInfo describes how a top-k search executed (EXPLAIN ANALYZE
// and the ids_vector_* metrics read it).
type SearchInfo struct {
	// Index is the access path taken: "hnsw" or "brute".
	Index string
	// Visited is the number of distance evaluations.
	Visited int
	// Candidates is the layer-0 candidate pool size the top-k came
	// from (equals Visited for brute force).
	Candidates int
	// Ef is the HNSW beam width used (0 for brute force).
	Ef int
}

// storeDist adapts the store to hnsw.Distancer. It reads vecs/norms
// without locking: every call happens inside a Store method already
// holding s.mu (construction under the write lock, search under the
// read lock).
type storeDist struct{ s *Store }

// Distance is the negated pair score (lower = closer) between stored
// vectors i and j.
func (d storeDist) Distance(i, j int) float64 {
	s := d.s
	switch s.metric {
	case Cosine:
		den := s.norms[i] * s.norms[j]
		if den == 0 {
			return 0
		}
		return -dot(s.vecs[i], s.vecs[j]) / den
	case Dot:
		return -dot(s.vecs[i], s.vecs[j])
	default:
		return l2(s.vecs[i], s.vecs[j])
	}
}

// DistanceTo is the negated query score. For Cosine the caller
// (SearchHNSW) pre-normalizes q to unit length so only the stored
// norm divides here.
func (d storeDist) DistanceTo(q []float32, i int) float64 {
	s := d.s
	switch s.metric {
	case Cosine:
		den := s.norms[i]
		if den == 0 {
			return 0
		}
		return -dot(q, s.vecs[i]) / den
	case Dot:
		return -dot(q, s.vecs[i])
	default:
		return l2(q, s.vecs[i])
	}
}

// EnableHNSW builds an HNSW index with the given configuration over
// the store's current contents; subsequent Add/Upsert calls maintain
// it incrementally. Calling it again rebuilds with the new config.
func (s *Store) EnableHNSW(cfg hnsw.Config) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := hnsw.New(cfg, storeDist{s})
	for i := range s.vecs {
		if err := idx.Insert(i); err != nil {
			return err
		}
	}
	s.hnswIdx = idx
	s.hnswCfg = idx.Config()
	return nil
}

// SearchHNSW returns the approximate top-k hits through the HNSW
// index (ef <= 0 takes the configured EfSearch). Without an enabled
// index it falls back to the exact brute-force scan, so SIMILAR works
// against any attached store. Results are ordered best-first with
// equal scores broken by key, matching Search.
func (s *Store) SearchHNSW(q []float32, k, ef int) ([]Result, SearchInfo, error) {
	if len(q) != s.dim {
		return nil, SearchInfo{}, dimError(len(q), s.dim)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.keys) == 0 {
		return nil, SearchInfo{}, ErrEmpty
	}
	if s.hnswIdx == nil {
		hits := s.searchIn(q, k)
		n := len(s.vecs)
		return hits, SearchInfo{Index: "brute", Visited: n, Candidates: n}, nil
	}
	qq := q
	qn := norm(q)
	if s.metric == Cosine && qn > 0 {
		qq = make([]float32, len(q))
		for i, x := range q {
			qq[i] = float32(float64(x) / qn)
		}
	}
	ids, st, err := s.hnswIdx.Search(qq, k, ef)
	if err != nil {
		return nil, SearchInfo{}, err
	}
	out := make([]Result, len(ids))
	for i, id := range ids {
		out[i] = Result{Key: s.keys[id], Score: s.score(q, qn, int(id))}
	}
	sortResults(out)
	return out, SearchInfo{
		Index:      "hnsw",
		Visited:    st.Visited,
		Candidates: st.Candidates,
		Ef:         st.Ef,
	}, nil
}
