package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// This file implements the query-lifecycle span tracer. A query trace
// is a small tree: top-level parse/plan/execute spans, then one
// OpTrace per executed operator (scan, join, rebalance, filter,
// union, optional, distinct, gather, aggregate), each carrying
// per-rank leaf samples so rank skew — the quantity §2.4.2's
// re-balancer acts on — is directly visible.
//
// Collection is lock-free during execution: every rank appends
// OpSamples to its own RankRecorder (rank goroutines never share
// one), and because all ranks execute the identical plan up to the
// gather the i-th sample on every rank describes the same operator;
// the operators after the gather run on the gather root alone and
// extend only its recorder. BuildTrace zips them into per-operator
// aggregates afterwards.

// traceSeq numbers traces within the process.
var traceSeq atomic.Int64

// NewTraceID returns a short process-unique trace identifier.
func NewTraceID() string {
	return fmt.Sprintf("q%06d", traceSeq.Add(1))
}

// OpSample is one operator execution observed on one rank.
type OpSample struct {
	// Depth is the nesting level (UNION/OPTIONAL branches recurse).
	Depth int `json:"depth"`
	// Op is the operator kind: scan, join, rebalance, filter, union,
	// optional, distinct, gather, aggregate. A scan with Note
	// "probe ?v" is a probe join: the pattern matched through this
	// rank's own index once per stream row, ?v bound (RowsIn stream
	// rows, RowsOut matched triples).
	Op string `json:"op"`
	// Label describes the operator instance (triple pattern, conjunct
	// order, ...).
	Label string `json:"label,omitempty"`
	// RowsIn/RowsOut are the operator's input and output cardinality
	// on this rank.
	RowsIn  int `json:"rows_in"`
	RowsOut int `json:"rows_out"`
	// VT is the virtual-clock seconds the operator advanced this
	// rank's clock by (the paper's simulated time).
	VT float64 `json:"vt_seconds"`
	// Wall is the measured wall-clock seconds on this rank. It doubles
	// as the per-rank CPU-time proxy: rank goroutines are CPU-bound on
	// real kernels, and virtually-charged kernels add no wall time.
	Wall float64 `json:"wall_seconds"`
	// AllocBytes/Mallocs are the operator-local accounted heap
	// footprint this operator materialized on this rank (see
	// exec.Footprint) — a deliberate under-estimate of physical
	// allocation, cross-checked against the query's runtime/metrics
	// delta in ResourceUsage.
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
	Mallocs    int64 `json:"mallocs,omitempty"`
	// Note carries operator extras (conjunct order chosen, rows
	// migrated by re-balancing, ...).
	Note string `json:"note,omitempty"`
}

// RankRecorder collects one rank's operator samples. It is owned by
// exactly one rank goroutine; no synchronization is needed.
type RankRecorder struct {
	Rank    int
	Samples []OpSample
}

// NewRankRecorder returns a recorder for rank id.
func NewRankRecorder(id int) *RankRecorder { return &RankRecorder{Rank: id} }

// Record appends one sample. Nil receivers are allowed so untraced
// runs can pass a nil recorder with ~zero overhead.
func (rr *RankRecorder) Record(s OpSample) {
	if rr == nil {
		return
	}
	rr.Samples = append(rr.Samples, s)
}

// RankOp is one rank's contribution to an operator, as stored in the
// assembled trace.
type RankOp struct {
	Rank       int     `json:"rank"`
	RowsIn     int     `json:"rows_in"`
	RowsOut    int     `json:"rows_out"`
	VT         float64 `json:"vt_seconds"`
	Wall       float64 `json:"wall_seconds"`
	AllocBytes int64   `json:"alloc_bytes,omitempty"`
	Mallocs    int64   `json:"mallocs,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// OpTrace is one operator of the query, aggregated over ranks.
type OpTrace struct {
	Depth   int    `json:"depth"`
	Op      string `json:"op"`
	Label   string `json:"label,omitempty"`
	RowsIn  int    `json:"rows_in"`  // summed over ranks
	RowsOut int    `json:"rows_out"` // summed over ranks
	// Virtual-clock statistics over ranks; Skew = VTMax/VTMean is the
	// imbalance the §2.4.2 re-balancer targets (1.0 = perfectly even).
	VTMax  float64 `json:"vt_max_seconds"`
	VTMin  float64 `json:"vt_min_seconds"`
	VTMean float64 `json:"vt_mean_seconds"`
	Skew   float64 `json:"skew"`
	// WallMax is the slowest rank's wall time.
	WallMax float64 `json:"wall_max_seconds"`
	// CPUSeconds sums measured wall time over ranks — the operator's
	// CPU-time proxy (rank goroutines are CPU-bound on real kernels).
	CPUSeconds float64 `json:"cpu_seconds"`
	// AllocBytes/Mallocs sum the operator-local accounted footprint
	// over ranks.
	AllocBytes int64    `json:"alloc_bytes"`
	Mallocs    int64    `json:"mallocs"`
	Note       string   `json:"note,omitempty"`
	Ranks      []RankOp `json:"ranks,omitempty"`
}

// QueryTrace is one query's full execution timeline.
type QueryTrace struct {
	ID    string    `json:"id"`
	Query string    `json:"query"`
	Start time.Time `json:"start"`
	// Fingerprint is the workload shape hash (plan.FormatFingerprint
	// form; empty when the query never parsed), linking this trace to
	// its /insights row.
	Fingerprint string `json:"fingerprint,omitempty"`
	// TraceParent is the query's W3C trace context — ingested from the
	// caller's traceparent header or minted at admission — so the trace
	// joins the caller's distributed trace.
	TraceParent string `json:"traceparent,omitempty"`
	// TailReason records why the tail sampler retained this trace
	// ("slow", "error", "alloc", "sample", comma-joined); empty for
	// traces that only passed through the recent ring.
	TailReason string `json:"tail_reason,omitempty"`
	// slow is set by TraceStore.Put when the verdict includes "slow".
	slow bool
	// Status is "ok" or "error"; Error carries the failure message for
	// error traces so a failed qid is still resolvable after the fact.
	Status string `json:"status,omitempty"`
	Error  string `json:"error,omitempty"`
	// Lifecycle wall-clock spans.
	ParseSeconds float64 `json:"parse_seconds"`
	PlanSeconds  float64 `json:"plan_seconds"`
	ExecSeconds  float64 `json:"exec_seconds"`
	WallSeconds  float64 `json:"wall_seconds"`
	// Makespan is the virtual-clock end-to-end time (max over ranks).
	Makespan float64 `json:"makespan_seconds"`
	Ranks    int     `json:"ranks"`
	Rows     int     `json:"rows"`
	// Phases is the per-phase bottleneck breakdown from the MPP report.
	Phases map[string]float64 `json:"phases,omitempty"`
	// Collective traffic over the whole query.
	Collectives int64   `json:"collectives"`
	CommBytes   int64   `json:"comm_bytes"`
	CommSeconds float64 `json:"comm_seconds"`
	// QueueWaitSeconds is the time the query spent in the admission
	// queue before executing (set by the HTTP layer; 0 for direct
	// engine calls or immediately admitted queries).
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	// Resources is the per-query resource attribution block (nil for
	// traces recorded before attribution, e.g. error stubs).
	Resources *ResourceUsage `json:"resources,omitempty"`
	Plan      string         `json:"plan,omitempty"`
	Ops       []OpTrace      `json:"ops"`
}

// BuildTrace assembles the per-rank recordings into a QueryTrace. The
// caller fills the lifecycle fields it owns (parse/plan/exec timings,
// report-derived phases and makespan) on the returned trace.
func BuildTrace(id, query string, start time.Time, recs []*RankRecorder, perRank bool) *QueryTrace {
	tr := &QueryTrace{ID: id, Query: query, Start: start, Ranks: len(recs)}
	if len(recs) == 0 {
		return tr
	}
	// All ranks run the identical plan up to the gather, so their first
	// samples zip; what follows the gather (bind, post-filter, aggregate)
	// runs on the gather root alone, whose recorder is therefore longer.
	// Operator i aggregates over the recorders that have a sample i.
	n := 0
	for _, rr := range recs {
		if len(rr.Samples) > n {
			n = len(rr.Samples)
		}
	}
	for i := 0; i < n; i++ {
		var op OpTrace
		sum, ranks := 0.0, 0
		for _, rr := range recs {
			if i >= len(rr.Samples) {
				continue
			}
			s := rr.Samples[i]
			if ranks == 0 {
				op = OpTrace{Depth: s.Depth, Op: s.Op, Label: s.Label, Note: s.Note, VTMin: s.VT}
			}
			ranks++
			op.RowsIn += s.RowsIn
			op.RowsOut += s.RowsOut
			op.CPUSeconds += s.Wall
			op.AllocBytes += s.AllocBytes
			op.Mallocs += s.Mallocs
			sum += s.VT
			if s.VT > op.VTMax {
				op.VTMax = s.VT
			}
			if s.VT < op.VTMin {
				op.VTMin = s.VT
			}
			if s.Wall > op.WallMax {
				op.WallMax = s.Wall
			}
			if perRank {
				op.Ranks = append(op.Ranks, RankOp{
					Rank: rr.Rank, RowsIn: s.RowsIn, RowsOut: s.RowsOut,
					VT: s.VT, Wall: s.Wall,
					AllocBytes: s.AllocBytes, Mallocs: s.Mallocs, Note: s.Note,
				})
			}
		}
		op.VTMean = sum / float64(ranks)
		if op.VTMean > 0 {
			op.Skew = op.VTMax / op.VTMean
		}
		tr.Ops = append(tr.Ops, op)
	}
	return tr
}
