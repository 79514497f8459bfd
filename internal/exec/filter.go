package exec

import (
	"context"
	"log/slog"

	"ids/internal/expr"
)

// FilterOpts controls the FILTER operator's optimizations.
type FilterOpts struct {
	// Reorder enables profiling-driven conjunct reordering (§2.4.3).
	Reorder bool
	// Rebalance selects solution re-balancing before evaluation
	// (§2.4.2).
	Rebalance RebalanceMode
	// SpeedFactor models this rank's relative hardware speed: UDF
	// costs are multiplied by it (1.0 = nominal; 2.0 = half speed).
	// The paper attributes rank throughput differences to "node
	// hardware and differences in the sub-graph within each rank's
	// data shard"; this knob injects the hardware part in experiments.
	SpeedFactor float64
	// Logger, when non-nil, narrates the optimizer decisions this
	// FILTER took (conjunct order chosen, re-balance traffic) at Debug.
	// Callers typically set it on one rank only to avoid N identical
	// lines per query.
	Logger *slog.Logger
	// Ctx is the request context passed to Logger calls, so the obs
	// handler stamps qid and traceparent onto operator-level lines
	// without the caller binding attributes by hand. Nil falls back to
	// context.Background().
	Ctx context.Context
}

// logCtx returns the context FILTER log lines carry.
func (o FilterOpts) logCtx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// FilterStats reports what one rank's FILTER evaluation did.
type FilterStats struct {
	Evaluated int // rows evaluated (after re-balancing)
	Passed    int // rows that survived
	// Chain is the conjunct evaluation order used by this rank,
	// exposing per-rank independent reordering.
	Chain []expr.Expr
	// RowsBefore is the local row count before §2.4.2 re-balancing.
	RowsBefore int
	// Rebalance reports the rows this rank shipped/received during
	// re-balancing (zero when disabled).
	Rebalance RebalanceInfo
	// RebalanceSeconds is the virtual time the re-balancing step took
	// on this rank, collectives included.
	RebalanceSeconds float64
}
