package workflow

import (
	"sort"
	"strconv"

	"ids/internal/dtba"
	"ids/internal/molgen"
	"ids/internal/mpp"
)

// The generative arm of the "what-could-be" facet: novel candidate
// molecules from the MolGAN-surrogate generator are screened with the
// DTBA model and the best are docked — the same prune-then-simulate
// ladder as the retrieval workflow, over compounds that do not exist
// in the graph yet.

// GenerateResult is one GenerateAndScreen execution.
type GenerateResult struct {
	Generated int
	Screened  int // survived the DTBA screen
	Docked    []Candidate
	Report    *mpp.Report
}

// GenerateAndScreen generates n molecules, keeps those whose predicted
// affinity against the target exceeds the configured DTBA threshold,
// and docks the best topK through the cache. Deterministic in seed.
func (w *Workflow) GenerateAndScreen(n, topK int, seed int64) (*GenerateResult, error) {
	gen := molgen.New(seed)
	smiles := gen.Generate(n)

	p := w.Engine.Topo.Size()
	type scored struct {
		smi string
		pkd float64
	}
	perRankScreen := make([][]scored, p)
	perRankDock := make([][]Candidate, p)

	report, err := mpp.Run(w.Engine.Topo, w.Engine.Net, seed, func(r *mpp.Rank) error {
		// Stage 1: DTBA screen, dealt round-robin; each prediction
		// charges its simulated inference cost.
		r.SetPhase("dtba-screen")
		for i := r.ID(); i < len(smiles); i += r.Size() {
			pkd, err := w.dtba.Predict(w.Dataset.TargetSeq, smiles[i])
			if err != nil {
				return err
			}
			r.Charge(dtba.Cost(w.Dataset.TargetSeq, smiles[i]))
			if pkd > w.Cfg.DTBAThreshold {
				perRankScreen[r.ID()] = append(perRankScreen[r.ID()], scored{smiles[i], pkd})
			}
		}
		if err := r.Barrier(); err != nil {
			return err
		}
		// Gather the survivors so every rank ranks them identically.
		mine := perRankScreen[r.ID()]
		parts, err := mpp.AllGatherSlice(r, mine)
		if err != nil {
			return err
		}
		var all []scored
		for _, part := range parts {
			all = append(all, part...)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].pkd != all[j].pkd {
				return all[i].pkd > all[j].pkd
			}
			return all[i].smi < all[j].smi
		})
		if topK > 0 && len(all) > topK {
			all = all[:topK]
		}
		// Stage 2: dock the ranked survivors through the cache.
		r.SetPhase("dock")
		for i := 0; i < len(all); i++ {
			if w.assignRank(r, i, all[i].smi) != r.ID() {
				continue
			}
			name := "generated/" + strconv.FormatInt(seed, 10) + "/" + strconv.Itoa(i)
			cand, err := w.dockOne(r, name, all[i].smi)
			if err != nil {
				return err
			}
			perRankDock[r.ID()] = append(perRankDock[r.ID()], cand)
		}
		return r.Barrier()
	})
	if err != nil {
		return nil, err
	}

	gr := &GenerateResult{Generated: n, Report: report}
	for i := range perRankScreen {
		gr.Screened += len(perRankScreen[i])
	}
	for i := range perRankDock {
		gr.Docked = append(gr.Docked, perRankDock[i]...)
	}
	sort.Slice(gr.Docked, func(i, j int) bool {
		return gr.Docked[i].Affinity < gr.Docked[j].Affinity
	})
	return gr, nil
}
