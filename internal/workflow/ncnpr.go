// Package workflow implements the NCNPR drug-repurposing workflow of
// paper §4 end to end: find proteins related to the target (P29274),
// retrieve sequence data, assemble candidate inhibitor compounds,
// filter by Smith-Waterman similarity, pIC50 and DTBA prediction, and
// dock the survivors with the Vina-surrogate engine — optionally
// through the global distributed cache so repeated queries reuse
// docking outputs (the Table 2 experiment).
package workflow

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ids/internal/cache"
	"ids/internal/dock"
	"ids/internal/dtba"
	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/fam"
	"ids/internal/fold"
	"ids/internal/ids"
	"ids/internal/mpp"
	"ids/internal/synth"
)

// Config parameterizes one NCNPR workflow instance.
type Config struct {
	// SWCost is the declared virtual cost of one Smith-Waterman
	// comparison (paper: < 1 ms).
	SWCost float64
	// PIC50Cost is the declared virtual cost of the potency lookup
	// (paper: 1e-5 s).
	PIC50Cost float64
	// PIC50Threshold gates compound potency (pIC50 > threshold).
	PIC50Threshold float64
	// DTBAThreshold gates predicted binding affinity (pKd).
	DTBAThreshold float64
	// DockSteps is the Monte-Carlo step count of the real docking
	// search (the virtual cost charged is dock.Cost regardless).
	DockSteps int
	// DTBASeed seeds the predictor weights.
	DTBASeed uint64
	// AffinitySchedule assigns each docking task to a rank on the
	// cache node holding its artifact instead of round-robin — the
	// paper's §8 locality-scheduling next step. Only effective with a
	// cache attached.
	AffinitySchedule bool
}

// DefaultConfig mirrors the paper's UDF cost ladder.
func DefaultConfig() Config {
	return Config{
		SWCost:         0.5e-3,
		PIC50Cost:      1e-5,
		PIC50Threshold: 6.0,
		DTBAThreshold:  4.5,
		DockSteps:      300,
		DTBASeed:       1,
	}
}

// Workflow is a ready-to-run NCNPR pipeline bound to an engine and an
// optional global cache.
type Workflow struct {
	Engine   *ids.Engine
	Dataset  *synth.Dataset
	Cfg      Config
	Cache    *cache.Cache // nil disables caching
	receptor *dock.Receptor
	dtba     *dtba.Predictor
}

// New registers the workflow UDFs (sw, pic50, dtba) on the engine and
// prepares the docking receptor from the AlphaFold-surrogate structure
// of the target.
func New(e *ids.Engine, ds *synth.Dataset, cfg Config, gc *cache.Cache) (*Workflow, error) {
	w := &Workflow{Engine: e, Dataset: ds, Cfg: cfg, Cache: gc}

	st, err := fold.Predict(ds.TargetSeq)
	if err != nil {
		return nil, err
	}
	w.receptor = dock.ReceptorFromStructure(st)
	w.dtba = dtba.New(cfg.DTBASeed)

	profile, err := alignProfile(ds.TargetSeq)
	if err != nil {
		return nil, err
	}
	if err := e.Reg.RegisterWithCost("ncnpr.sw",
		func(args []expr.Value) (expr.Value, error) {
			if len(args) != 1 || args[0].Kind != expr.KindString {
				return expr.Null, errors.New("ncnpr.sw(sequence string)")
			}
			sim, err := profile.Similarity(args[0].Str)
			if err != nil {
				return expr.Null, err
			}
			return expr.Float(sim), nil
		},
		func([]expr.Value) float64 { return cfg.SWCost },
	); err != nil {
		return nil, err
	}
	if err := e.Reg.RegisterWithCost("ncnpr.pic50",
		func(args []expr.Value) (expr.Value, error) {
			if len(args) != 1 || args[0].Kind != expr.KindFloat {
				return expr.Null, errors.New("ncnpr.pic50(ic50 nM)")
			}
			return expr.Float(pic50(args[0].Num)), nil
		},
		func([]expr.Value) float64 { return cfg.PIC50Cost },
	); err != nil {
		return nil, err
	}
	if err := e.Reg.RegisterWithCost("ncnpr.dtba",
		func(args []expr.Value) (expr.Value, error) {
			if len(args) != 2 || args[0].Kind != expr.KindString || args[1].Kind != expr.KindString {
				return expr.Null, errors.New("ncnpr.dtba(sequence, smiles)")
			}
			return w.predictDTBA(args[0].Str, args[1].Str)
		},
		func(args []expr.Value) float64 {
			if len(args) == 2 {
				return dtba.Cost(args[0].Str, args[1].Str)
			}
			return 0.5
		},
	); err != nil {
		return nil, err
	}
	// All three UDFs are pure: the profile, pIC50 formula and DTBA
	// surrogate are deterministic in their arguments, and every cost
	// model is a pure function of the arguments too — so the registry
	// may memoize results (and replay the stored virtual cost) without
	// perturbing the simulated clock or the profiling counters.
	for _, name := range []string{"ncnpr.sw", "ncnpr.pic50", "ncnpr.dtba"} {
		if err := e.Reg.MarkPure(name); err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *Workflow) predictDTBA(seq, smiles string) (expr.Value, error) {
	v, err := w.dtba.Predict(seq, smiles)
	if err != nil {
		return expr.Null, err
	}
	return expr.Float(v), nil
}

// InnerQuery renders the paper's inner query for a Smith-Waterman
// selectivity threshold. The SW relatedness filter is its own FILTER
// so the planner applies it to the bulk reviewed-protein scan (the
// paper's ~66M sequence comparisons) before compounds are joined in;
// the potency and affinity conditions form a reorderable chain.
func (w *Workflow) InnerQuery(swThreshold float64) string {
	return fmt.Sprintf(`
		PREFIX up: <%s>
		PREFIX ch: <%s>
		SELECT DISTINCT ?compound ?smiles ?seq WHERE {
			?protein a up:Protein .
			?protein up:reviewed "true" .
			?protein up:sequence ?seq .
			FILTER(ncnpr.sw(?seq) >= %g)
			?compound ch:inhibits ?protein .
			?compound ch:smiles ?smiles .
			?compound ch:ic50 ?ic50 .
			FILTER(ncnpr.pic50(?ic50) > %g && ncnpr.dtba(?seq, ?smiles) > %g)
		}`,
		synth.NSUp, synth.NSChem, swThreshold, w.Cfg.PIC50Threshold, w.Cfg.DTBAThreshold)
}

// InnerQueryWorstFirst is the same query with the candidate FILTER
// chain written in the worst possible order (expensive DTBA inference
// before the cheap potency check) — the input for the §2.4.3
// reordering ablation.
func (w *Workflow) InnerQueryWorstFirst(swThreshold float64) string {
	return fmt.Sprintf(`
		PREFIX up: <%s>
		PREFIX ch: <%s>
		SELECT DISTINCT ?compound ?smiles ?seq WHERE {
			?protein a up:Protein .
			?protein up:reviewed "true" .
			?protein up:sequence ?seq .
			FILTER(ncnpr.sw(?seq) >= %g)
			?compound ch:inhibits ?protein .
			?compound ch:smiles ?smiles .
			?compound ch:ic50 ?ic50 .
			FILTER(ncnpr.dtba(?seq, ?smiles) > %g && ncnpr.pic50(?ic50) > %g)
		}`,
		synth.NSUp, synth.NSChem, swThreshold, w.Cfg.DTBAThreshold, w.Cfg.PIC50Threshold)
}

// Candidate is one docked compound.
type Candidate struct {
	Compound string
	SMILES   string
	Affinity float64
	Cached   bool
}

// RunResult is one end-to-end workflow execution.
type RunResult struct {
	Candidates []Candidate
	Report     *mpp.Report
	// InnerRows is the candidate count returned by the inner query.
	InnerRows int
	// CacheHits/CacheMisses count docking lookups when caching is on.
	CacheHits   int
	CacheMisses int
}

// TotalTime returns the simulated end-to-end query time.
func (rr *RunResult) TotalTime() float64 { return rr.Report.Makespan }

// NonDockTime returns the makespan excluding the docking phase — the
// paper's "excluding docking" series in Fig 4a.
func (rr *RunResult) NonDockTime() float64 {
	return rr.Report.Makespan - rr.Report.PhaseMax("dock")
}

// dockKey names a cached docking artifact, addressed as the paper
// does: object path plus content identity.
func dockKey(target, smiles string) string {
	return fmt.Sprintf("dock/%s/%016x", target, fam.ObjectID(smiles))
}

// Run executes the full workflow at the given SW threshold: inner
// query (steps 1-4) then docking of survivors (step 5), in one MPP
// world so the phase breakdown matches the paper's figures.
func (w *Workflow) Run(swThreshold float64) (*RunResult, error) {
	return w.RunQuery(w.InnerQuery(swThreshold))
}

// RunQuery runs the workflow with a caller-supplied inner query (used
// by ablations that vary the FILTER structure). The docking stage runs
// in the query's own world, so the query's report, metrics and
// insights observation include it.
func (w *Workflow) RunQuery(query string) (*RunResult, error) {
	p := w.Engine.Topo.Size()
	perRank := make([][]Candidate, p)
	hits := make([]int, p)
	misses := make([]int, p)

	out, err := w.Engine.QueryStage(context.Background(), query, func(r *mpp.Rank, tab *exec.Table) error {
		// Step 5: dock the survivors. The gathered table is identical
		// on every rank, so every rank computes the same assignment:
		// round-robin by default, or cache-affinity placement (tasks
		// go to a rank on the node holding the artifact) when
		// configured.
		r.SetPhase("dock")
		ci, si := tab.Col("compound"), tab.Col("smiles")
		if ci < 0 || si < 0 {
			return errors.New("workflow: inner query lost its projection")
		}
		res := w.Engine.Graph.Dict
		for i := 0; i < tab.Len(); i++ {
			row := tab.Rows[i]
			smiTerm, _ := res.Decode(row[si].ID)
			if w.assignRank(r, i, smiTerm.Value) != r.ID() {
				continue
			}
			compTerm, _ := res.Decode(row[ci].ID)
			cand, err := w.dockOne(r, compTerm.Value, smiTerm.Value)
			if err != nil {
				return err
			}
			perRank[r.ID()] = append(perRank[r.ID()], cand)
			if cand.Cached {
				hits[r.ID()]++
			} else {
				misses[r.ID()]++
			}
		}
		return r.Barrier()
	})
	if err != nil {
		return nil, err
	}

	rr := &RunResult{Report: out.Report, InnerRows: len(out.Rows)}
	for i := range perRank {
		rr.Candidates = append(rr.Candidates, perRank[i]...)
		rr.CacheHits += hits[i]
		rr.CacheMisses += misses[i]
	}
	sort.Slice(rr.Candidates, func(i, j int) bool {
		return rr.Candidates[i].Affinity < rr.Candidates[j].Affinity
	})
	return rr, nil
}

// assignRank places docking task i deterministically. Round-robin by
// default; with affinity scheduling, a task whose artifact is cached
// goes to a rank on the holding node (spread by task index within the
// node's ranks), so its fetch is node-local.
func (w *Workflow) assignRank(r *mpp.Rank, i int, smiles string) int {
	if !w.Cfg.AffinitySchedule || w.Cache == nil {
		return i % r.Size()
	}
	key := dockKey(synth.TargetAccession, smiles)
	locs := w.Cache.WhereIs(key)
	rpn := r.Size() / r.Nodes()
	for _, l := range locs {
		// dockOne maps compute node n to cache node n % cacheNodes,
		// so compute node l.Node (when it exists) reads cache node
		// l.Node locally.
		if l.Node < r.Nodes() {
			return l.Node*rpn + i%rpn
		}
	}
	return i % r.Size()
}

// dockOne docks a single compound, going through the global cache when
// configured: DRAM/SSD hit, then disk stash, then (total miss)
// re-execution of the simulation, whose output is stashed.
func (w *Workflow) dockOne(r *mpp.Rank, compound, smiles string) (Candidate, error) {
	key := dockKey(synth.TargetAccession, smiles)
	if w.Cache != nil {
		var m fam.Meter
		node := r.Node() % cacheNodes(w.Cache)
		if data, err := w.Cache.Get(&m, key, node); err == nil {
			r.Charge(m.Seconds)
			aff, perr := parseAffinity(data)
			if perr != nil {
				return Candidate{}, perr
			}
			return Candidate{Compound: compound, SMILES: smiles, Affinity: aff, Cached: true}, nil
		} else if !errors.Is(err, cache.ErrMiss) {
			return Candidate{}, err
		}
		r.Charge(m.Seconds) // failed lookup still costs its probes
	}
	aff, err := w.runDock(smiles)
	if err != nil {
		return Candidate{}, err
	}
	// Charge the real simulation's virtual cost (31-44 s band).
	r.Charge(dock.Cost(smiles))
	if w.Cache != nil {
		var m fam.Meter
		node := r.Node() % cacheNodes(w.Cache)
		if err := w.Cache.Put(&m, key, formatAffinity(aff), node); err != nil {
			return Candidate{}, err
		}
		r.Charge(m.Seconds)
	}
	return Candidate{Compound: compound, SMILES: smiles, Affinity: aff}, nil
}

// runDock performs the actual (downscaled) docking computation.
func (w *Workflow) runDock(smiles string) (float64, error) {
	lig, err := ligandFor(smiles)
	if err != nil {
		return 0, err
	}
	res, err := dock.Dock(w.receptor, lig, dock.Params{
		Steps: w.Cfg.DockSteps,
		Seed:  int64(fam.ObjectID(smiles)),
		Temp:  1.2,
	})
	if err != nil {
		return 0, err
	}
	return res.Affinity, nil
}

func formatAffinity(a float64) []byte { return []byte(fmt.Sprintf("%.6f", a)) }

func parseAffinity(b []byte) (float64, error) {
	var a float64
	if _, err := fmt.Sscanf(string(b), "%g", &a); err != nil {
		return 0, fmt.Errorf("workflow: corrupt cached docking output %q: %w", b, err)
	}
	return a, nil
}
