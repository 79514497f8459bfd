package ids

import (
	"fmt"

	"ids/internal/vecstore"
	"ids/internal/wal"
)

// Durable vector upserts: the write-side twin of the SIMILAR access
// path. A vector upsert follows the exact protocol of a triple update —
// validate, append to the WAL, apply under the writer lock, bump the
// update epoch — so crash recovery replays vectors and triples through
// one ordered log and a SIMILAR query after recovery sees exactly the
// vectors an acknowledged upsert wrote.

// VectorUpsert writes (or overwrites) one vector in the named store.
// A store that does not exist yet is created with the vector's
// dimension and the Cosine metric; replay recreates it with whatever
// metric the record captured. The returned UpdateResult carries the
// WAL LSN (0 without durability).
func (e *Engine) VectorUpsert(store, key string, vec []float32) (*UpdateResult, error) {
	if store == "" {
		return nil, fmt.Errorf("ids: vector upsert: empty store name")
	}
	if key == "" {
		return nil, fmt.Errorf("ids: vector upsert: empty key")
	}
	if len(vec) == 0 {
		return nil, fmt.Errorf("ids: vector upsert: empty vector")
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	// Validate against the live store before logging anything: an
	// upsert either fully enters the WAL or is fully rejected.
	metric := vecstore.Cosine
	if vs, ok := e.vectors[store]; ok {
		metric = vs.Metric()
		if vs.Dim() != len(vec) {
			return nil, fmt.Errorf("ids: vector upsert: store %q holds %d-dim vectors, got %d",
				store, vs.Dim(), len(vec))
		}
	}
	lsn, err := e.appendLocked(wal.Record{
		Kind: wal.KindVecUpsert,
		Vec:  &wal.VecUpsert{Store: store, Key: key, Metric: uint8(metric), Vec: vec},
	})
	if err != nil {
		return nil, err
	}
	if err := e.applyVecLocked(store, key, uint8(metric), vec); err != nil {
		return nil, err
	}
	if e.walNotify != nil {
		e.walNotify()
	}
	e.Logger().Debug("vector upsert applied", "store", store, "key", key, "lsn", lsn)
	return &UpdateResult{Kind: wal.KindVecUpsert.String(), Applied: 1, Total: 1, LSN: lsn}, nil
}

// applyVecLocked mutates one vector store, creating it on first touch,
// and bumps the update epoch and planner statistics. Caller holds the
// writer lock. This is the single apply path shared by live upserts and
// WAL replay, so recovery reproduces exactly the live engine's state
// transitions.
func (e *Engine) applyVecLocked(store, key string, metric uint8, vec []float32) error {
	vs, ok := e.vectors[store]
	if !ok {
		var err error
		if vs, err = vecstore.New(len(vec), vecstore.Metric(metric)); err != nil {
			return fmt.Errorf("ids: vector upsert: %w", err)
		}
		if e.vectors == nil {
			e.vectors = map[string]*vecstore.Store{}
		}
		e.vectors[store] = vs
	}
	if _, err := vs.Upsert(key, vec); err != nil {
		return fmt.Errorf("ids: vector upsert: %w", err)
	}
	e.updates.Add(1)
	e.met.updates.Inc()
	e.met.vecUpserts.Inc()
	e.rebuildStatsLocked()
	return nil
}
