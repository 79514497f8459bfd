package ids

import (
	"context"
	"fmt"
	"log/slog"
	"strings"

	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/plan"
	"ids/internal/sparql"
	"ids/internal/udf"
)

// Plan execution. The pre-gather pipeline carries column batches of
// dict IDs through arena-backed buffers; rows are materialized once, on
// the gather root, and the post-gather stages are Engine.finalize.
//
// Accounting discipline: arena-backed scratch is recycled across
// operators and queries, so an operator may allocate nothing. Each op
// therefore reports the arena's *fresh-heap delta* (new slabs, grown
// scratch) across its execution — real allocations only; startOp and
// record take it — plus, at gather, the materialized result table. That
// keeps PR 6's two-ledger invariant intact: op-accounted bytes stay a
// strictly positive under-estimate of the physical runtime/metrics
// delta.

// slotKey carries the server's admission-slot index through the
// request context into the engine, keying arena reuse.
type slotKey struct{}

// withSlot returns ctx tagged with the admission slot index.
func withSlot(ctx context.Context, slot int) context.Context {
	return context.WithValue(ctx, slotKey{}, slot)
}

// slotFrom extracts the admission slot, or -1 when the query did not
// pass through server admission (CLI, tests, embedded callers).
func slotFrom(ctx context.Context) int {
	if v, ok := ctx.Value(slotKey{}).(int); ok {
		return v
	}
	return -1
}

// runPlanRec executes the plan steps on one rank and returns the final
// (gathered, ordered, projected) table — one table, built by the gather
// root and handed to every rank, so callers must treat it as read-only.
// rec is the rank's optional trace recorder, profs the query's overlay
// profilers and arenas the world's.
func (e *Engine) runPlanRec(r *mpp.Rank, pl *plan.Plan, rec *obs.RankRecorder, profs []*udf.Profiler, arenas []*exec.Arena) (*exec.Table, error) {
	a := arenas[r.ID()]
	b, err := e.runSteps(r, pl.Steps, nil, rec, profs, a, 0)
	if err != nil {
		return nil, err
	}

	r.SetPhase("merge")
	// De-duplicating full solutions before the gather only shrinks what
	// is shipped — finalize applies DISTINCT to the projected rows —
	// and must not run ahead of an aggregate, whose input is a bag.
	if pl.Distinct && len(pl.Aggregates) == 0 {
		ot := startOp(rec, r, a)
		in := b.Len()
		b, err = exec.DistinctGlobalBatch(r, b, a)
		if err != nil {
			return nil, err
		}
		ot.record(rec, r, obs.OpSample{Op: "distinct", RowsIn: in, RowsOut: b.Len()})
	}
	ot := startOp(rec, r, a)
	in := b.Len()
	out, err := exec.GatherBatchTo(r, b, a, func(all *exec.Batch) (*exec.Table, error) {
		tab := all.Materialize()
		gb, gm := all.MaterializeFootprint()
		ot.record(rec, r, obs.OpSample{Op: "gather", RowsIn: in, RowsOut: tab.Len(),
			AllocBytes: gb, Mallocs: gm})
		return e.finalize(r, pl, tab, rec, a)
	})
	if err == nil && r.ID() != exec.RootRank {
		ot.record(rec, r, obs.OpSample{Op: "gather", RowsIn: in})
	}
	return out, err
}

// runSteps executes a step list against the rank's shard, starting
// from b (nil = the first access path seeds the stream). UNION branches
// and OPTIONAL bodies recurse with a fresh stream. When rec is non-nil
// every operator appends one OpSample; all ranks run the identical
// plan so sample sequences zip across ranks.
func (e *Engine) runSteps(r *mpp.Rank, steps []plan.Step, b *exec.Batch, rec *obs.RankRecorder, profs []*udf.Profiler, a *exec.Arena, depth int) (*exec.Batch, error) {
	shard := e.Graph.Shard(r.ID())
	prof := profs[r.ID()]
	speed := 1.0
	if e.Opts.SpeedFactor != nil {
		speed = e.Opts.SpeedFactor(r.ID())
	}
	// Rank 0 narrates planner decisions (conjunct order, re-balance
	// traffic) at Debug; one rank is enough — all ranks share the plan.
	var flog *slog.Logger
	if r.ID() == 0 {
		flog = e.Logger()
	}
	join := func(right *exec.Batch, op string, leftJoin bool) error {
		r.SetPhase("join")
		jt := startOp(rec, r, a)
		in := b.Len() + right.Len()
		var err error
		if leftJoin {
			b, err = exec.LeftJoinBatch(r, b, right, a)
		} else {
			b, err = exec.HashJoinBatch(r, b, right, a)
		}
		if err != nil {
			return err
		}
		jt.record(rec, r, obs.OpSample{Depth: depth, Op: op, RowsIn: in, RowsOut: b.Len()})
		return nil
	}
	// joinIn seeds the stream with an access path's batch or hash-joins
	// it into the running stream.
	joinIn := func(t *exec.Batch) error {
		if b == nil {
			b = t
			return nil
		}
		return join(t, "join", false)
	}
	// owned names the stream variable whose every row sits on the rank
	// that owns its value as a subject: set when a SIMILAR access path
	// seeds the stream (its hits are placed by kg.Graph.ShardOf), kept
	// across probe joins, cleared by every other step. The choice reads
	// only the plan and the stream header, so all ranks make it alike —
	// they must, since the hash join it replaces enters collectives.
	owned := ""
	for _, step := range steps {
		placed := owned
		owned = ""
		switch s := step.(type) {
		case plan.ScanStep, plan.JoinStep:
			pat := patternOf(step)
			r.SetPhase("scan")
			if col := probeCol(b, pat, placed); col >= 0 {
				ot := startOp(rec, r, a)
				in := b.Len()
				var matched int
				b, matched = exec.ProbeJoinBatch(r, shard, e.Graph.Dict, b, col, pat, a)
				ot.record(rec, r, obs.OpSample{Depth: depth, Op: "scan", Label: pat.String(),
					RowsIn: in, RowsOut: matched, Note: "probe ?" + placed})
				owned = placed
				continue
			}
			ot := startOp(rec, r, a)
			t, err := exec.ScanBatch(r, shard, e.Graph.Dict, pat, a)
			if err != nil {
				return nil, err
			}
			ot.record(rec, r, obs.OpSample{Depth: depth, Op: "scan", Label: pat.String(), RowsOut: t.Len()})
			if err := joinIn(t); err != nil {
				return nil, err
			}
		case plan.FilterStep:
			r.SetPhase("filter")
			ft := startOp(rec, r, a)
			nb, fstats, err := exec.FilterBatch(r, b, s.Expr, e.Reg, prof, e.res(), exec.FilterOpts{
				Reorder:     e.Opts.Reorder,
				Rebalance:   e.Opts.Rebalance,
				SpeedFactor: speed,
				Logger:      flog,
				// The request context rides along so the obs handler
				// stamps qid and traceparent onto operator lines.
				Ctx: r.Context(),
			}, a)
			if err != nil {
				return nil, err
			}
			b = nb
			if fstats.Rebalance.Sent > 0 {
				e.met.rebalanceMoved.Add(float64(fstats.Rebalance.Sent))
			}
			if rec != nil {
				if e.Opts.Rebalance != exec.RebalanceNone {
					rec.Record(obs.OpSample{
						Depth: depth, Op: "rebalance",
						RowsIn: fstats.RowsBefore, RowsOut: fstats.Evaluated,
						VT:   fstats.RebalanceSeconds,
						Note: fmt.Sprintf("sent=%d recv=%d", fstats.Rebalance.Sent, fstats.Rebalance.Received),
					})
				}
				ft.vt0 += fstats.RebalanceSeconds // attribute re-balancing VT to its own span
				ft.record(rec, r, obs.OpSample{
					Depth: depth, Op: "filter",
					RowsIn: fstats.Evaluated, RowsOut: fstats.Passed,
					Note: "order: " + conjunctOrder(fstats.Chain),
				})
			}
			// Global sync after independent per-rank evaluation
			// (paper: ranks sync solutions only once evaluation
			// completes).
			if err := r.Barrier(); err != nil {
				return nil, err
			}
		case plan.UnionStep:
			parts := make([]*exec.Batch, 0, len(s.Branches))
			for _, branch := range s.Branches {
				bt, err := e.runSteps(r, branch, nil, rec, profs, a, depth+1)
				if err != nil {
					return nil, err
				}
				bt, err = bt.Project(s.Vars)
				if err != nil {
					return nil, err
				}
				parts = append(parts, bt)
			}
			// The branches' operators recorded themselves; the union's
			// own span is the concatenation.
			ut := startOp(rec, r, a)
			unionB := exec.ConcatBatches(a, s.Vars, parts)
			ut.record(rec, r, obs.OpSample{Depth: depth, Op: "union", RowsOut: unionB.Len(),
				Label: fmt.Sprintf("%d branches", len(s.Branches))})
			if err := joinIn(unionB); err != nil {
				return nil, err
			}
		case plan.SimilarStep:
			if s.Semi {
				r.SetPhase("filter")
			} else {
				r.SetPhase("scan")
			}
			ot := startOp(rec, r, a)
			ids, info, err := e.knnHits(s.Sim, r.ID() == 0)
			if err != nil {
				return nil, err
			}
			exec.ChargeKNN(r, info.Visited)
			if s.Semi {
				col := b.Col(s.Sim.Var)
				if col < 0 {
					return nil, fmt.Errorf("ids: SIMILAR semi-join variable ?%s not in stream", s.Sim.Var)
				}
				in := b.Len()
				b = exec.SemiFilterBatch(a, b, col, knnKeepSet(ids))
				ot.record(rec, r, obs.OpSample{Depth: depth, Op: "knn", Label: s.Sim.String(),
					RowsIn: in, RowsOut: b.Len(), Note: knnNote(info, true)})
				continue
			}
			t := exec.KNNBatch(a, s.Sim.Var, e.knnOwned(ids, r.ID()))
			ot.record(rec, r, obs.OpSample{Depth: depth, Op: "knn", Label: s.Sim.String(),
				RowsOut: t.Len(), Note: knnNote(info, false)})
			if b == nil {
				b, owned = t, s.Sim.Var
				continue
			}
			if err := join(t, "join", false); err != nil {
				return nil, err
			}
		case plan.ValuesStep:
			r.SetPhase("scan")
			ot := startOp(rec, r, a)
			rows := exec.ResolveValues(s.Values, e.Graph.Dict)
			t := exec.ValuesBatch(r, a, s.Values.Vars, rows)
			ot.record(rec, r, obs.OpSample{Depth: depth, Op: "values", Label: s.Values.String(),
				RowsOut: t.Len()})
			if err := joinIn(t); err != nil {
				return nil, err
			}
		case plan.OptionalStep:
			bt, err := e.runSteps(r, s.Body, nil, rec, profs, a, depth+1)
			if err != nil {
				return nil, err
			}
			if b == nil {
				// A leading OPTIONAL is just its body (nothing on the
				// left to preserve).
				b = bt
				continue
			}
			if err := join(bt, "optional", true); err != nil {
				return nil, err
			}
		}
	}
	return b, nil
}

// patternOf extracts the triple pattern from a scan or join step.
func patternOf(s plan.Step) (p sparql.TriplePattern) {
	switch n := s.(type) {
	case plan.ScanStep:
		return n.Pattern
	case plan.JoinStep:
		return n.Pattern
	}
	return p
}

// probeCol returns the stream column of placed when pat can join
// through the rank's own spo index (exec.ProbeJoinBatch): placed is the
// stream's owner-placed variable, pat's subject, and the only variable
// pat shares with the stream. -1 otherwise.
func probeCol(b *exec.Batch, pat sparql.TriplePattern, placed string) int {
	if placed == "" || !pat.S.IsVar || pat.S.Var != placed {
		return -1
	}
	for _, tv := range [2]sparql.TermOrVar{pat.P, pat.O} {
		if tv.IsVar && tv.Var != placed && b.Col(tv.Var) >= 0 {
			return -1
		}
	}
	return b.Col(placed)
}

// res returns the engine's cached ID resolver.
func (e *Engine) res() expr.Resolver { return e.cres }

// conjunctOrder renders the order a rank evaluated a FILTER's conjuncts
// in, for its trace span.
func conjunctOrder(chain []expr.Expr) string {
	parts := make([]string, len(chain))
	for i, c := range chain {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}
