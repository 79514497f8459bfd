// Package vecstore implements the vector-store face of the IDS
// 3-in-1 datastore: dense float32 vectors keyed by name, brute-force
// and HNSW indexes, and top-k similarity search under cosine,
// dot-product and Euclidean metrics. In the NCNPR workflow it holds
// compound fingerprints and sequence embeddings for fast candidate
// pre-screening.
package vecstore

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"ids/internal/vecstore/hnsw"
)

// Metric selects the similarity/distance function.
type Metric int

// Supported metrics.
const (
	Cosine Metric = iota
	Dot
	L2
)

func (m Metric) String() string {
	switch m {
	case Cosine:
		return "cosine"
	case Dot:
		return "dot"
	default:
		return "l2"
	}
}

// Errors.
var (
	ErrDimMismatch = errors.New("vecstore: dimension mismatch")
	ErrNotFound    = errors.New("vecstore: vector not found")
	ErrEmpty       = errors.New("vecstore: store is empty")
	ErrExists      = errors.New("vecstore: key already exists")
)

// dimError wraps ErrDimMismatch with the offending sizes.
func dimError(got, want int) error {
	return fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, got, want)
}

// Result is one search hit.
type Result struct {
	Key string
	// Score is similarity for Cosine/Dot (higher better) and negated
	// distance for L2 (higher better), so ordering is uniform.
	Score float64
}

// Store is a concurrency-safe vector store.
type Store struct {
	mu     sync.RWMutex
	dim    int
	metric Metric
	keys   []string
	// data is the contiguous backing array; vecs[i] is the view
	// data[i*dim:(i+1)*dim]. One flat allocation keeps graph-order
	// (random) access cache-friendly — with one heap object per vector
	// the HNSW hot loop stalled on a pointer chase per distance.
	data  []float32
	vecs  [][]float32
	norms []float64
	index map[string]int

	// HNSW index state (nil until EnableHNSW); maintained
	// incrementally by Add/Upsert.
	hnswIdx *hnsw.Index
	hnswCfg hnsw.Config
}

// New creates a store for dim-dimensional vectors under the metric.
func New(dim int, metric Metric) (*Store, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("vecstore: invalid dimension %d", dim)
	}
	return &Store{dim: dim, metric: metric, index: map[string]int{}}, nil
}

// Dim returns the store's dimensionality.
func (s *Store) Dim() int { return s.dim }

// Metric returns the store's similarity metric.
func (s *Store) Metric() Metric { return s.metric }

// Len returns the number of stored vectors.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.keys)
}

// Add inserts a vector under key; an enabled HNSW index is extended
// incrementally.
func (s *Store) Add(key string, vec []float32) error {
	if len(vec) != s.dim {
		return fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(vec), s.dim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return fmt.Errorf("%w: %s", ErrExists, key)
	}
	return s.appendLocked(key, vec)
}

// appendLocked appends a new (key, vec) entry; caller holds the write
// lock and has checked dimension and key uniqueness.
func (s *Store) appendLocked(key string, vec []float32) error {
	oldCap := cap(s.data)
	s.data = append(s.data, vec...)
	if cap(s.data) != oldCap {
		// The backing array moved: re-point every existing view.
		for i := range s.vecs {
			s.vecs[i] = s.data[i*s.dim : (i+1)*s.dim : (i+1)*s.dim]
		}
	}
	n := len(s.keys)
	cp := s.data[n*s.dim : (n+1)*s.dim : (n+1)*s.dim]
	s.index[key] = n
	s.keys = append(s.keys, key)
	s.vecs = append(s.vecs, cp)
	s.norms = append(s.norms, norm(cp))
	if s.hnswIdx != nil {
		return s.hnswIdx.Insert(len(s.keys) - 1)
	}
	return nil
}

// Upsert inserts the vector under key or overwrites an existing entry
// in place. It reports whether a new entry was created. Overwrites
// relink the HNSW node at its new position.
func (s *Store) Upsert(key string, vec []float32) (created bool, err error) {
	if len(vec) != s.dim {
		return false, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(vec), s.dim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.index[key]
	if !ok {
		return true, s.appendLocked(key, vec)
	}
	copy(s.vecs[i], vec)
	s.norms[i] = norm(s.vecs[i])
	if s.hnswIdx != nil {
		return false, s.hnswIdx.Reinsert(i)
	}
	return false, nil
}

// Get returns the vector stored under key.
func (s *Store) Get(key string) ([]float32, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i, ok := s.index[key]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	out := make([]float32, s.dim)
	copy(out, s.vecs[i])
	return out, nil
}

func norm(v []float32) float64 {
	ss := 0.0
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	return math.Sqrt(ss)
}

// dot and l2 are 4-way unrolled: independent accumulators break the
// serial FP-add dependency chain that otherwise bounds every distance
// evaluation (both the brute scan and the HNSW hot loop).
func dot(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	s := s0 + s1 + s2 + s3
	for i := n; i < len(a); i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// l2 returns the Euclidean distance between a and b.
func l2(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	s := s0 + s1 + s2 + s3
	for i := n; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

// score computes the uniform higher-is-better score.
func (s *Store) score(q []float32, qnorm float64, i int) float64 {
	switch s.metric {
	case Cosine:
		d := qnorm * s.norms[i]
		if d == 0 {
			return 0
		}
		return dot(q, s.vecs[i]) / d
	case Dot:
		return dot(q, s.vecs[i])
	default:
		return -l2(q, s.vecs[i])
	}
}

// resultHeap is a min-heap holding the current top-k with the worst
// hit on top. "Worse" is lower score, with equal scores broken by
// greater key — so equal-score hits resolve deterministically by key
// and brute-force and HNSW results stay comparable regardless of
// insertion order.
type resultHeap []Result

// worseThan reports whether a ranks strictly below b.
func worseThan(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Key > b.Key
}

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return worseThan(h[i], h[j]) }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h resultHeap) worst() Result      { return h[0] }

// Search returns the top-k hits for the query, brute force.
func (s *Store) Search(q []float32, k int) ([]Result, error) {
	if len(q) != s.dim {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDimMismatch, len(q), s.dim)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.keys) == 0 {
		return nil, ErrEmpty
	}
	return s.searchIn(q, k), nil
}

// searchIn scans every stored vector; the caller holds the read lock.
func (s *Store) searchIn(q []float32, k int) []Result {
	qn := norm(q)
	h := make(resultHeap, 0, k+1)
	for i := range s.vecs {
		r := Result{Key: s.keys[i], Score: s.score(q, qn, i)}
		if len(h) < k {
			heap.Push(&h, r)
		} else if k > 0 && worseThan(h.worst(), r) {
			h[0] = r
			heap.Fix(&h, 0)
		}
	}
	out := make([]Result, len(h))
	copy(out, h)
	sortResults(out)
	return out
}

// sortResults orders hits best-first: score descending, equal scores
// by key ascending.
func sortResults(out []Result) {
	sort.Slice(out, func(a, b int) bool { return worseThan(out[b], out[a]) })
}
