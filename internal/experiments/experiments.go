// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 5) plus the ablations DESIGN.md calls
// out. Each experiment is a plain function returning structured rows,
// shared by cmd/ids-bench (which prints paper-vs-measured tables) and
// the root-level Go benchmarks.
//
// Absolute numbers are produced at a configurable scale (the paper's
// testbed is 30 TB of data on up to 1000 HPE Cray EX nodes); the
// reproduction targets are the SHAPES: who wins, scaling slopes,
// crossovers, and the cache's 5-15x win.
package experiments

import (
	"fmt"
	"time"

	"ids/internal/cache"
	"ids/internal/exec"
	"ids/internal/ids"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/store"
	"ids/internal/synth"
	"ids/internal/workflow"
)

// PaperSWComparisons is the number of sequence comparisons the paper's
// runs perform (≈66M UniProt sequences against P29274).
const PaperSWComparisons = 66_000_000

// Scale bundles every knob of a reproduction run.
type Scale struct {
	Name         string
	NodesList    []int // Fig 4/5 sweep
	RanksPerNode int
	// Background reviewed proteins (the bulk SW scan size).
	Background int
	// SWThreshold for the Fig 4/5 runs (the paper's run returned ~55
	// compounds; 0.5 reproduces that on the default tiers).
	SWThreshold float64
	// SWCost is the virtual seconds per SW comparison (paper: <1 ms;
	// 0.84 ms makes the 64-node FILTER point land on the paper's 27 s
	// at full scale).
	SWCost float64
	Seed   int64
	// DockSteps for the real (downscaled) docking search.
	DockSteps int
	// Table2Nodes/Table2Ranks size the cache experiment cluster (the
	// paper used 2 compute + 2 memory nodes).
	Table2Nodes        int
	Table2RanksPerNode int
	Table1Scale        float64
	// CalibrateToPaper inflates the per-call SW cost so that measured
	// FILTER times land on the paper's absolute scale: each synthetic
	// comparison stands for ExtrapolationFactor paper comparisons,
	// and each simulated rank for 32/RanksPerNode paper ranks.
	CalibrateToPaper bool
}

// paperRanksPerNode is the paper's rank density (32 ranks/node).
const paperRanksPerNode = 32

// SWCostEffective returns the per-call SW virtual cost to charge.
func (sc Scale) SWCostEffective() float64 {
	if !sc.CalibrateToPaper {
		return sc.SWCost
	}
	return sc.SWCost * sc.ExtrapolationFactor() * float64(sc.RanksPerNode) / paperRanksPerNode
}

// FilterExtrapolation is the factor mapping measured FILTER times to
// paper scale (1 when the SW cost is already calibrated).
func (sc Scale) FilterExtrapolation() float64 {
	if sc.CalibrateToPaper {
		return 1
	}
	return sc.ExtrapolationFactor()
}

// PaperScale runs the paper's node counts; intended for cmd/ids-bench
// one-shot runs (minutes of wall time). Rank density is scaled from
// the paper's 32/node to 8/node — the in-process world's collectives
// are O(ranks^2) in memory, and 2048 ranks keeps the sweep tractable
// while preserving per-rank work and the scaling shape.
func PaperScale() Scale {
	return Scale{
		Name:               "paper",
		NodesList:          []int{64, 128, 256},
		RanksPerNode:       8,
		Background:         66_000, // 1e-3 of the paper's comparisons
		SWThreshold:        0.5,
		SWCost:             0.84e-3,
		Seed:               7,
		DockSteps:          300,
		Table2Nodes:        2,
		Table2RanksPerNode: 32, // dual 64-core EPYC nodes in the testbed
		Table1Scale:        1e-6,
		CalibrateToPaper:   true,
	}
}

// CIScale is a reduced configuration for tests and `go test -bench`.
func CIScale() Scale {
	return Scale{
		Name:               "ci",
		NodesList:          []int{4, 8, 16},
		RanksPerNode:       4,
		Background:         3_000,
		SWThreshold:        0.5,
		SWCost:             0.84e-3,
		Seed:               7,
		DockSteps:          120,
		Table2Nodes:        2,
		Table2RanksPerNode: 4,
		Table1Scale:        1e-7,
	}
}

// Comparisons returns the SW comparison count of this scale (reviewed
// proteins in the graph).
func (sc Scale) Comparisons() int {
	tiers := synth.DefaultTable2Tiers()
	n := 1 + sc.Background // target + background
	for _, t := range tiers {
		n += t.Proteins
	}
	return n
}

// ExtrapolationFactor maps measured bulk-scan times to paper scale.
func (sc Scale) ExtrapolationFactor() float64 {
	return float64(PaperSWComparisons) / float64(sc.Comparisons())
}

// dataset builds the NCNPR graph for the given shard count.
func (sc Scale) dataset(shards int) (*synth.Dataset, error) {
	cfg := synth.NCNPRConfig{
		Seed:               sc.Seed,
		Shards:             shards,
		SeqLen:             240,
		Tiers:              synth.DefaultTable2Tiers(),
		BackgroundProteins: sc.Background,
		UnreviewedProteins: sc.Background / 10,
		SkipBackgroundSim:  true,
	}
	return synth.BuildNCNPR(cfg)
}

// newWorkflow assembles an engine+workflow for a topology. swCost is
// the per-comparison virtual cost to charge (raw or paper-calibrated).
func (sc Scale) newWorkflow(topo mpp.Topology, gc *cache.Cache, swCost float64) (*workflow.Workflow, error) {
	ds, err := sc.dataset(topo.Size())
	if err != nil {
		return nil, err
	}
	e, err := ids.NewEngine(ds.Graph, topo)
	if err != nil {
		return nil, err
	}
	cfg := workflow.DefaultConfig()
	cfg.SWCost = swCost
	cfg.DockSteps = sc.DockSteps
	w, err := workflow.New(e, ds, cfg, gc)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// ---------------------------------------------------------------
// Table 1: dataset characteristics / ingest.
// ---------------------------------------------------------------

// Table1Row is one dataset source.
type Table1Row struct {
	Name          string
	PaperTriples  int64
	Generated     int
	IngestWall    time.Duration
	TriplesPerSec float64
}

// Table1 generates each Table 1 source at the scale factor and
// measures ingest throughput into the partitioned store.
func Table1(sc Scale, shards int) ([]Table1Row, error) {
	var rows []Table1Row
	for i, src := range synth.Table1Sources() {
		g := kg.New(shards)
		start := time.Now()
		n := synth.GenerateSource(g, src, sc.Table1Scale, sc.Seed+int64(i))
		g.Seal()
		wall := time.Since(start)
		tps := 0.0
		if wall > 0 {
			tps = float64(n) / wall.Seconds()
		}
		rows = append(rows, Table1Row{
			Name:          src.Name,
			PaperTriples:  src.PaperTriples,
			Generated:     n,
			IngestWall:    wall,
			TriplesPerSec: tps,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------
// Figures 4(a), 4(b) and 5: NCNPR scaling runs.
// ---------------------------------------------------------------

// ScalingPoint is one node count of the Fig 4/5 sweep.
type ScalingPoint struct {
	Nodes   int
	Ranks   int
	Total   float64 // simulated end-to-end seconds (Fig 4a)
	NonDock float64 // Fig 4a "excluding docking"
	Dock    float64 // Fig 4b docking phase
	Filter  float64 // Fig 4b / Fig 5 FILTER phase
	Scan    float64 // Fig 4b
	Join    float64 // Fig 4b
	Merge   float64 // Fig 4b
	Docked  int
	Wall    time.Duration // real time the simulation took
}

// Fig4 runs the NCNPR query at every node count of the scale. The
// same rows serve Fig 4(a) (total + excluding-docking), Fig 4(b)
// (phase breakdown) and Fig 5 (FILTER series).
func Fig4(sc Scale) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, nodes := range sc.NodesList {
		topo := mpp.Topology{Nodes: nodes, RanksPerNode: sc.RanksPerNode}
		w, err := sc.newWorkflow(topo, nil, sc.SWCostEffective())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rr, err := w.Run(sc.SWThreshold)
		if err != nil {
			return nil, err
		}
		rep := rr.Report
		out = append(out, ScalingPoint{
			Nodes:   nodes,
			Ranks:   topo.Size(),
			Total:   rr.TotalTime(),
			NonDock: rr.NonDockTime(),
			Dock:    rep.PhaseMax("dock"),
			Filter:  rep.PhaseMax("filter"),
			Scan:    rep.PhaseMax("scan"),
			Join:    rep.PhaseMax("join"),
			Merge:   rep.PhaseMax("merge"),
			Docked:  len(rr.Candidates),
			Wall:    time.Since(start),
		})
	}
	return out, nil
}

// ---------------------------------------------------------------
// Table 2: cache speedups over the Smith-Waterman selectivity sweep.
// ---------------------------------------------------------------

// Table2Row is one selectivity level.
type Table2Row struct {
	Selectivity float64
	Compounds   int
	NoCacheSec  float64
	CachedSec   float64
	Speedup     float64
}

// PaperTable2 returns the paper's reported Table 2 numbers for
// side-by-side printing.
func PaperTable2() []Table2Row {
	return []Table2Row{
		{Selectivity: 0.99, Compounds: 56, NoCacheSec: 47.49, CachedSec: 8.99},
		{Selectivity: 0.90, Compounds: 56, NoCacheSec: 47.66, CachedSec: 8.5},
		{Selectivity: 0.80, Compounds: 57, NoCacheSec: 47.87, CachedSec: 10.51},
		{Selectivity: 0.70, Compounds: 57, NoCacheSec: 47.86, CachedSec: 9.06},
		{Selectivity: 0.60, Compounds: 57, NoCacheSec: 48.08, CachedSec: 8.3},
		{Selectivity: 0.50, Compounds: 57, NoCacheSec: 51.7, CachedSec: 9.23},
		{Selectivity: 0.40, Compounds: 121, NoCacheSec: 358.76, CachedSec: 28.93},
		{Selectivity: 0.20, Compounds: 1129, NoCacheSec: 3847.07, CachedSec: 242.85},
	}
}

// Table2 sweeps the paper's selectivity thresholds on the small cache
// cluster. For each threshold it measures the query without caching,
// then the repeated query with the global cache holding the docking
// outputs (the paper's iterate-and-refine protocol).
func Table2(sc Scale) ([]Table2Row, error) {
	topo := mpp.Topology{Nodes: sc.Table2Nodes, RanksPerNode: sc.Table2RanksPerNode}

	// Uncached instance.
	plain, err := sc.newWorkflow(topo, nil, sc.SWCost)
	if err != nil {
		return nil, err
	}
	// Cached instance: memory servers on two nodes, as in the paper.
	backing, err := store.Open(fmt.Sprintf("%s/ids-table2-%d", tmpDir(), time.Now().UnixNano()))
	if err != nil {
		return nil, err
	}
	ccfg := cache.DefaultConfig()
	ccfg.Nodes = 2
	gc, err := cache.New(ccfg, backing)
	if err != nil {
		return nil, err
	}
	cached, err := sc.newWorkflow(topo, gc, sc.SWCost)
	if err != nil {
		return nil, err
	}

	thresholds := []float64{0.99, 0.90, 0.80, 0.70, 0.60, 0.50, 0.40, 0.20}
	var rows []Table2Row
	for _, thr := range thresholds {
		un, err := plain.Run(thr)
		if err != nil {
			return nil, err
		}
		// Warm: the prior iteration of the researcher's session.
		if _, err := cached.Run(thr); err != nil {
			return nil, err
		}
		hot, err := cached.Run(thr)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Selectivity: thr,
			Compounds:   un.InnerRows,
			NoCacheSec:  un.TotalTime(),
			CachedSec:   hot.TotalTime(),
		}
		if row.CachedSec > 0 {
			row.Speedup = row.NoCacheSec / row.CachedSec
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ---------------------------------------------------------------
// §2.4.2 re-balancing: worked example + live ablation.
// ---------------------------------------------------------------

// RebalanceExample reproduces the paper's worked example analytically:
// 1.4M solutions over 900 ranks (500 at 100 ops/s, 300 at 200, 100 at
// 300). Returns (cost-aware makespan, count-based makespan).
func RebalanceExample() (costAware, countBased float64, targets []int) {
	rates := make([]float64, 900)
	for i := range rates {
		switch {
		case i < 500:
			rates[i] = 100
		case i < 800:
			rates[i] = 200
		default:
			rates[i] = 300
		}
	}
	const total = 1_400_000
	targets = exec.CostTargets(total, rates)
	costAware = exec.EstimatedMakespan(targets, rates)
	countBased = exec.EstimatedMakespan(exec.CountTargets(total, len(rates)), rates)
	return costAware, countBased, targets
}

// RebalanceRow is one policy of the live ablation.
type RebalanceRow struct {
	Policy    string
	FilterSec float64
	TotalSec  float64
}

// RebalanceAblation runs the NCNPR query on a heterogeneous cluster
// (one third of nodes at half speed, as the paper attributes rank
// imbalance to node hardware) under each balancing policy. The
// profile is warmed once so cost-aware balancing has data.
func RebalanceAblation(sc Scale, nodes int) ([]RebalanceRow, error) {
	topo := mpp.Topology{Nodes: nodes, RanksPerNode: sc.RanksPerNode}
	policies := []exec.RebalanceMode{exec.RebalanceNone, exec.RebalanceCount, exec.RebalanceCost}
	var rows []RebalanceRow
	for _, pol := range policies {
		w, err := sc.newWorkflow(topo, nil, sc.SWCost)
		if err != nil {
			return nil, err
		}
		slowNodes := nodes / 3
		w.Engine.Opts = ids.Options{
			Reorder:   true,
			Rebalance: pol,
			SpeedFactor: func(rank int) float64 {
				if rank/sc.RanksPerNode < slowNodes {
					return 3.0 // slow node: 3x the UDF time
				}
				return 1.0
			},
		}
		// Warm the per-rank profiles so estimates exist.
		if _, err := w.Run(sc.SWThreshold); err != nil {
			return nil, err
		}
		rr, err := w.Run(sc.SWThreshold)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RebalanceRow{
			Policy:    pol.String(),
			FilterSec: rr.Report.PhaseMax("filter"),
			TotalSec:  rr.TotalTime(),
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------
// §2.4.3 expression reordering ablation.
// ---------------------------------------------------------------

// ReorderRow is one arm of the reordering ablation.
type ReorderRow struct {
	Reorder   bool
	FilterSec float64
}

// ReorderAblation runs the candidate filter written in worst-first
// order (expensive DTBA before cheap potency check) with reordering
// off, then on, after a profile warmup. The dataset makes the potency
// filter selective (half the compounds are weakly potent), so the
// optimizer's cheap-first order skips DTBA inference on the rejects.
func ReorderAblation(sc Scale, nodes int) ([]ReorderRow, error) {
	topo := mpp.Topology{Nodes: nodes, RanksPerNode: sc.RanksPerNode}
	var rows []ReorderRow
	for _, reorder := range []bool{false, true} {
		dcfg := synth.NCNPRConfig{
			Seed:               sc.Seed,
			Shards:             topo.Size(),
			SeqLen:             240,
			Tiers:              synth.DefaultTable2Tiers(),
			BackgroundProteins: sc.Background / 10,
			SkipBackgroundSim:  true,
			NonPotentFraction:  0.5,
		}
		ds, err := synth.BuildNCNPR(dcfg)
		if err != nil {
			return nil, err
		}
		e, err := ids.NewEngine(ds.Graph, topo)
		if err != nil {
			return nil, err
		}
		wcfg := workflow.DefaultConfig()
		wcfg.SWCost = sc.SWCost
		wcfg.DockSteps = sc.DockSteps
		w, err := workflow.New(e, ds, wcfg, nil)
		if err != nil {
			return nil, err
		}
		w.Engine.Opts = ids.Options{Reorder: reorder, Rebalance: exec.RebalanceCount}
		// Use a wide threshold so plenty of candidate rows reach the
		// worst-first chain.
		q := w.InnerQueryWorstFirst(0.2)
		if _, err := w.RunQuery(q); err != nil { // profile warmup
			return nil, err
		}
		rr, err := w.RunQuery(q)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ReorderRow{Reorder: reorder, FilterSec: rr.Report.PhaseMax("filter")})
	}
	return rows, nil
}

// ---------------------------------------------------------------
// "What-is" latency (paper §1: milliseconds).
// ---------------------------------------------------------------

// WhatIs measures the simulated latency of a point lookup.
func WhatIs(sc Scale, nodes int) (float64, error) {
	topo := mpp.Topology{Nodes: nodes, RanksPerNode: sc.RanksPerNode}
	ds, err := sc.dataset(topo.Size())
	if err != nil {
		return 0, err
	}
	e, err := ids.NewEngine(ds.Graph, topo)
	if err != nil {
		return 0, err
	}
	res, err := e.WhatIs(synth.TargetIRI)
	if err != nil {
		return 0, err
	}
	return res.Report.Makespan, nil
}
