package experiments

import (
	"ids/internal/mpp"
	"ids/internal/obs"
)

// TraceSummaryResult bundles one traced NCNPR inner-query run: the
// span trace and the engine's metrics snapshot after it, the payload
// ids-bench -trace-out writes.
type TraceSummaryResult struct {
	Scale   string           `json:"scale"`
	Nodes   int              `json:"nodes"`
	Ranks   int              `json:"ranks"`
	Trace   *obs.QueryTrace  `json:"trace"`
	Metrics []obs.FamilyJSON `json:"metrics"`
}

// TraceSummary runs the paper's NCNPR inner query (scan/join/
// re-balance/filter across all ranks) with span tracing enabled and
// returns the trace plus the engine's metrics snapshot.
func TraceSummary(sc Scale, nodes int) (*TraceSummaryResult, error) {
	topo := mpp.Topology{Nodes: nodes, RanksPerNode: sc.RanksPerNode}
	w, err := sc.newWorkflow(topo, nil, sc.SWCostEffective())
	if err != nil {
		return nil, err
	}
	res, err := w.Engine.QueryTraced(w.InnerQuery(sc.SWThreshold))
	if err != nil {
		return nil, err
	}
	return &TraceSummaryResult{
		Scale:   sc.Name,
		Nodes:   nodes,
		Ranks:   topo.Size(),
		Trace:   res.Trace,
		Metrics: w.Engine.Metrics().Snapshot(),
	}, nil
}
