package ids

import (
	"context"
	"fmt"

	"ids/internal/dict"
	"ids/internal/sparql"
	"ids/internal/wal"
)

// Local aliases keep expandGround's signature readable.
type dictTerm = dict.Term

const dictIRI = dict.IRI

// UpdateResult reports what an update statement changed.
type UpdateResult struct {
	Kind    string `json:"kind"`
	Applied int    `json:"applied"` // triples actually inserted/removed
	Total   int    `json:"total"`   // triples in the payload
	// LSN is the write-ahead-log sequence number of this update (0
	// when the engine runs without durability). Once the server
	// acknowledges an LSN under fsync=always, the update survives a
	// crash.
	LSN uint64 `json:"lsn"`
}

// Update applies an INSERT DATA / DELETE DATA statement to the live
// graph (the "update" half of the paper's query/update endpoint).
// It takes the engine's exclusive writer lock, so it waits for
// in-flight queries to drain and blocks new ones while it mutates the
// graph. When a WAL is attached the record is appended (and synced per
// the fsync policy) BEFORE the graph mutates — append-then-apply — so
// an acknowledged update is always recoverable and a crash between
// append and apply merely replays an idempotent record. Planner
// statistics are rebuilt and swapped in atomically and the update
// epoch is bumped.
func (e *Engine) Update(us string) (*UpdateResult, error) {
	return e.UpdateCtx(context.Background(), us)
}

// UpdateCtx is Update with a caller context: the qid and traceparent
// it carries stamp the WAL-append log line, extending trace
// correlation to the durability path — an externally traced request
// that mutates the graph stays one trace through the log append.
func (e *Engine) UpdateCtx(ctx context.Context, us string) (*UpdateResult, error) {
	u, err := sparql.ParseUpdate(us)
	if err != nil {
		return nil, err
	}
	// Validate and expand the payload before logging anything: a
	// statement either fully enters the WAL or is fully rejected.
	triples := make([]wal.TermTriple, 0, len(u.Triples))
	for _, t := range u.Triples {
		s, p, o, err := expandGround(t, u.Prefixes)
		if err != nil {
			return nil, err
		}
		triples = append(triples, wal.TermTriple{S: s, P: p, O: o})
	}
	kind := wal.KindInsert
	if u.Kind == sparql.DeleteData {
		kind = wal.KindDelete
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	lsn, err := e.appendLocked(wal.Record{Kind: kind, Triples: triples})
	if err != nil {
		return nil, err
	}
	res := e.applyLocked(kind, triples)
	res.Kind = u.Kind.String()
	res.LSN = lsn
	if e.walNotify != nil {
		e.walNotify()
	}
	e.Logger().DebugContext(ctx, "update applied",
		"kind", res.Kind, "applied", res.Applied, "total", res.Total, "lsn", lsn)
	return res, nil
}

// appendLocked is the write-ahead step both kinds of update share: it
// refuses while the engine is degraded, stamps rec with the next update
// epoch and appends it (a no-op returning LSN 0 without a WAL). A failed
// append rejects the update cleanly, since nothing was applied yet, but
// the log can no longer acknowledge writes, so the engine flips to
// read-only degraded mode. Every error it returns wraps ErrDegraded.
// Caller holds the writer lock.
func (e *Engine) appendLocked(rec wal.Record) (uint64, error) {
	if reason, ok := e.Degraded(); ok {
		return 0, fmt.Errorf("%w: %s", ErrDegraded, reason)
	}
	if e.wal == nil {
		return 0, nil
	}
	rec.Epoch = uint64(e.updates.Load()) + 1
	lsn, err := e.wal.Append(rec)
	if err != nil {
		e.markDegraded(fmt.Sprintf("wal append: %v", err))
		return 0, fmt.Errorf("%w: wal append: %w", ErrDegraded, err)
	}
	return lsn, nil
}

// applyLocked mutates the graph with one statement's triples, bumps
// the update epoch, and rebuilds planner statistics. Caller holds the
// writer lock. This is the single apply path shared by live updates
// and WAL replay, so recovery reproduces exactly the live engine's
// state transitions.
func (e *Engine) applyLocked(kind wal.Kind, triples []wal.TermTriple) *UpdateResult {
	res := &UpdateResult{Kind: kind.String(), Total: len(triples)}
	for _, t := range triples {
		switch kind {
		case wal.KindInsert:
			if e.Graph.Insert(t.S, t.P, t.O) {
				res.Applied++
			}
		case wal.KindDelete:
			if e.Graph.Delete(t.S, t.P, t.O) {
				res.Applied++
			}
		}
	}
	e.updates.Add(1)
	e.met.updates.Inc()
	e.rebuildStatsLocked()
	return res
}

// replayWAL applies every log record with LSN > from through the
// normal update path (applyLocked / applyVecLocked), so recovery
// rebuilds planner statistics and the update epoch with exactly the
// live engine's state transitions. Returns how many records were
// replayed.
func (e *Engine) replayWAL(l *wal.Log, from uint64) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	lg := e.Logger()
	lg.Info("wal replay started", "from_lsn", from+1)
	n := 0
	err := l.Replay(from+1, func(rec wal.Record) error {
		switch rec.Kind {
		case wal.KindInsert, wal.KindDelete:
			e.applyLocked(rec.Kind, rec.Triples)
		case wal.KindVecUpsert:
			if rec.Vec == nil {
				return fmt.Errorf("ids: wal record %d has no vector payload", rec.LSN)
			}
			if err := e.applyVecLocked(rec.Vec.Store, rec.Vec.Key, rec.Vec.Metric, rec.Vec.Vec); err != nil {
				return fmt.Errorf("ids: wal record %d: %w", rec.LSN, err)
			}
		default:
			return fmt.Errorf("ids: wal record %d has unknown kind %d", rec.LSN, rec.Kind)
		}
		n++
		return nil
	})
	if err != nil {
		lg.Error("wal replay failed", "records_replayed", n, "err", err)
	} else {
		lg.Info("wal replay finished", "records_replayed", n, "last_lsn", l.LastLSN())
	}
	return n, err
}

// expandGround is a hook for future prefixed-name support in payload
// terms; the parser already expands prefixes in IRIs, so this is
// currently a pass-through with validation.
func expandGround(t sparql.GroundTriple, _ map[string]string) (s, p, o dictTerm, err error) {
	if t.P.Kind != dictIRI {
		return s, p, o, fmt.Errorf("ids: update predicate must be an IRI")
	}
	return t.S, t.P, t.O, nil
}
