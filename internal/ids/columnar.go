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

// Columnar plan execution: the batch/vector twin of runPlanRec and
// runSteps in engine.go. The pre-gather pipeline carries column batches
// of dict IDs through arena-backed buffers; rows are materialized once,
// on the gather root, and the post-gather stages are Engine.finalize,
// shared with the row engine.
//
// Accounting discipline: arena-backed scratch is recycled across
// operators and queries, so an operator may allocate nothing. Each op
// therefore reports the arena's *fresh-heap delta* (new slabs, grown
// scratch) across its execution — real allocations only — plus, at
// gather, the materialized result table. That keeps PR 6's two-ledger
// invariant intact: op-accounted bytes stay a strictly positive
// under-estimate of the physical runtime/metrics delta.

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

// freshSince returns the arena's fresh-heap growth since (b0, m0).
func freshSince(a *exec.Arena, b0, m0 int64) (bytes, mallocs int64) {
	b1, m1 := a.Fresh()
	return b1 - b0, m1 - m0
}

// runPlanBatch executes the plan on one rank through the columnar
// operators, returning the final (gathered, materialized, ordered,
// projected) table — the gather root's, on every rank, and identical
// row sets to the row engine's runPlanRec.
func (e *Engine) runPlanBatch(ctx context.Context, r *mpp.Rank, pl *plan.Plan, rec *obs.RankRecorder, profs []*udf.Profiler, a *exec.Arena) (*exec.Table, error) {
	b, err := e.runStepsBatch(ctx, r, pl.Steps, nil, rec, profs, a, 0)
	if err != nil {
		return nil, err
	}

	r.SetPhase("merge")
	if pl.Distinct {
		ot := startOp(rec, r)
		fb0, fm0 := a.Fresh()
		in := b.Len()
		b, err = exec.DistinctGlobalBatch(r, b, a)
		if err != nil {
			return nil, err
		}
		db, dm := freshSince(a, fb0, fm0)
		ot.record(rec, r, obs.OpSample{Op: "distinct", RowsIn: in, RowsOut: b.Len(),
			AllocBytes: db, Mallocs: dm})
	}
	ot := startOp(rec, r)
	fb0, fm0 := a.Fresh()
	in := b.Len()
	out, err := exec.GatherBatchTo(r, b, a, func(all *exec.Batch) (*exec.Table, error) {
		tab := all.Materialize()
		gb, gm := all.MaterializeFootprint()
		db, dm := freshSince(a, fb0, fm0)
		ot.record(rec, r, obs.OpSample{Op: "gather", RowsIn: in, RowsOut: tab.Len(),
			AllocBytes: gb + db, Mallocs: gm + dm})
		return e.finalize(r, pl, tab, rec)
	})
	if err == nil && r.ID() != exec.RootRank {
		db, dm := freshSince(a, fb0, fm0)
		ot.record(rec, r, obs.OpSample{Op: "gather", RowsIn: in, AllocBytes: db, Mallocs: dm})
	}
	return out, err
}

// runStepsBatch is the columnar runSteps: identical step dispatch,
// phase names, barrier placement, profiling, virtual-cost charging and
// OpSample sequence, so traces, /metrics and the simulated clock cannot
// tell the engines apart.
func (e *Engine) runStepsBatch(ctx context.Context, r *mpp.Rank, steps []plan.Step, b *exec.Batch, rec *obs.RankRecorder, profs []*udf.Profiler, a *exec.Arena, depth int) (*exec.Batch, error) {
	shard := e.Graph.Shard(r.ID())
	prof := profs[r.ID()]
	speed := 1.0
	if e.Opts.SpeedFactor != nil {
		speed = e.Opts.SpeedFactor(r.ID())
	}
	var flog *slog.Logger
	if r.ID() == 0 {
		flog = e.Logger()
	}
	join := func(right *exec.Batch, op string, leftJoin bool) error {
		r.SetPhase("join")
		jt := startOp(rec, r)
		fb0, fm0 := a.Fresh()
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
		jb, jm := freshSince(a, fb0, fm0)
		jt.record(rec, r, obs.OpSample{Depth: depth, Op: op, RowsIn: in, RowsOut: b.Len(),
			AllocBytes: jb, Mallocs: jm})
		return nil
	}
	for _, step := range steps {
		switch s := step.(type) {
		case plan.ScanStep, plan.JoinStep:
			var pat = patternOf(step)
			r.SetPhase("scan")
			ot := startOp(rec, r)
			fb0, fm0 := a.Fresh()
			t, err := exec.ScanBatch(r, shard, e.Graph.Dict, pat, a)
			if err != nil {
				return nil, err
			}
			sb, sm := freshSince(a, fb0, fm0)
			ot.record(rec, r, obs.OpSample{Depth: depth, Op: "scan", Label: pat.String(), RowsOut: t.Len(),
				AllocBytes: sb, Mallocs: sm})
			if b == nil {
				b = t
			} else if err := join(t, "join", false); err != nil {
				return nil, err
			}
		case plan.FilterStep:
			r.SetPhase("filter")
			ft := startOp(rec, r)
			fb0, fm0 := a.Fresh()
			nb, fstats, err := exec.FilterBatch(r, b, s.Expr, e.Reg, prof, e.res(), exec.FilterOpts{
				Reorder:     e.Opts.Reorder,
				Rebalance:   e.Opts.Rebalance,
				SpeedFactor: speed,
				Logger:      flog,
				// Request context: the obs handler stamps qid and
				// traceparent onto operator lines.
				Ctx: ctx,
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
				ft.vt0 += fstats.RebalanceSeconds
				db, dm := freshSince(a, fb0, fm0)
				ft.record(rec, r, obs.OpSample{
					Depth: depth, Op: "filter",
					RowsIn: fstats.Evaluated, RowsOut: fstats.Passed,
					AllocBytes: db, Mallocs: dm,
					Note: "order: " + strings.Join(fstats.Order, " AND "),
				})
			}
			if err := r.Barrier(); err != nil {
				return nil, err
			}
		case plan.UnionStep:
			fb0, fm0 := a.Fresh()
			parts := make([]*exec.Batch, 0, len(s.Branches))
			for _, branch := range s.Branches {
				bt, err := e.runStepsBatch(ctx, r, branch, nil, rec, profs, a, depth+1)
				if err != nil {
					return nil, err
				}
				bt, err = bt.Project(s.Vars)
				if err != nil {
					return nil, err
				}
				parts = append(parts, bt)
			}
			unionB := exec.ConcatBatches(a, s.Vars, parts)
			ub, um := freshSince(a, fb0, fm0)
			if rec != nil {
				r.Account(ub, um, int64(unionB.Len()), 0)
			}
			rec.Record(obs.OpSample{Depth: depth, Op: "union", RowsOut: unionB.Len(),
				Label:      fmt.Sprintf("%d branches", len(s.Branches)),
				AllocBytes: ub, Mallocs: um})
			if b == nil {
				b = unionB
			} else if err := join(unionB, "join", false); err != nil {
				return nil, err
			}
		case plan.SimilarStep:
			if s.Semi {
				r.SetPhase("filter")
			} else {
				r.SetPhase("scan")
			}
			ot := startOp(rec, r)
			fb0, fm0 := a.Fresh()
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
				db, dm := freshSince(a, fb0, fm0)
				ot.record(rec, r, obs.OpSample{Depth: depth, Op: "knn", Label: s.Sim.String(),
					RowsIn: in, RowsOut: b.Len(), AllocBytes: db, Mallocs: dm,
					Note: knnNote(info, true)})
			} else {
				t := exec.KNNBatch(a, s.Sim.Var, knnPartition(ids, r.ID(), e.Topo.Size()))
				db, dm := freshSince(a, fb0, fm0)
				ot.record(rec, r, obs.OpSample{Depth: depth, Op: "knn", Label: s.Sim.String(),
					RowsOut: t.Len(), AllocBytes: db, Mallocs: dm, Note: knnNote(info, false)})
				if b == nil {
					b = t
				} else if err := join(t, "join", false); err != nil {
					return nil, err
				}
			}
		case plan.ValuesStep:
			r.SetPhase("scan")
			ot := startOp(rec, r)
			fb0, fm0 := a.Fresh()
			rows := exec.ResolveValues(s.Values, e.Graph.Dict)
			t := exec.ValuesBatch(r, a, s.Values.Vars, rows)
			db, dm := freshSince(a, fb0, fm0)
			ot.record(rec, r, obs.OpSample{Depth: depth, Op: "values", Label: s.Values.String(),
				RowsOut: t.Len(), AllocBytes: db, Mallocs: dm})
			if b == nil {
				b = t
			} else if err := join(t, "join", false); err != nil {
				return nil, err
			}
		case plan.OptionalStep:
			bt, err := e.runStepsBatch(ctx, r, s.Body, nil, rec, profs, a, depth+1)
			if err != nil {
				return nil, err
			}
			if b == nil {
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

// res returns the engine's cached ID resolver.
func (e *Engine) res() expr.Resolver { return e.cres }
