package expr

import "sort"

// This file implements the FILTER expression optimization of paper
// §2.4.3: before evaluating a conjunction that contains UDF calls,
// each rank reorders the conjuncts in ascending order of estimated
// per-solution evaluation time, breaking near-ties in favor of the
// conjunct expected to eliminate more solutions. Ranks reorder
// independently, using their own profiling data, so different ranks
// may evaluate the same FILTER in different orders.

// Estimator supplies per-UDF profiling estimates. Implemented by
// udf.Profiler.
type Estimator interface {
	// EstimateCost returns the expected seconds per call of the named
	// UDF and whether profiling data exists for it.
	EstimateCost(name string) (float64, bool)
	// RejectRate returns the fraction of evaluations in which the
	// named UDF's conjunct rejected the solution, in [0, 1].
	RejectRate(name string) float64
}

// cheapConjunctCost is the assumed cost of a conjunct with no UDF
// calls (a plain comparison): effectively free relative to any UDF.
const cheapConjunctCost = 1e-8

// unknownUDFCost is the assumed cost of a UDF that has never been
// profiled; pessimistic so unprofiled functions run late until data
// accumulates.
const unknownUDFCost = 1.0

// similarityBand is the relative cost band within which two conjuncts
// are considered "similar" and the rejection-rate tie-break applies.
const similarityBand = 1.2

// ConjunctStats describes one conjunct's estimated behaviour.
type ConjunctStats struct {
	Expr       Expr
	Cost       float64 // estimated seconds per evaluation
	RejectRate float64 // estimated fraction of solutions rejected
}

// EstimateConjunct computes cost and rejection estimates for one
// conjunct from the estimator's profiling data.
func EstimateConjunct(e Expr, est Estimator) ConjunctStats {
	cs := ConjunctStats{Expr: e, Cost: cheapConjunctCost}
	for _, name := range CallNames(e) {
		c, ok := est.EstimateCost(name)
		if !ok {
			c = unknownUDFCost
		}
		cs.Cost += c
		if rr := est.RejectRate(name); rr > cs.RejectRate {
			cs.RejectRate = rr
		}
	}
	return cs
}

// ReorderChain orders a conjunct list by ascending estimated cost;
// conjuncts whose costs fall within the similarity band are ordered by
// descending rejection rate so the stronger pruner runs first. The
// sort is stable with respect to the input for exact ties.
func ReorderChain(chain []Expr, est Estimator) []Expr {
	stats := make([]ConjunctStats, len(chain))
	for i, c := range chain {
		stats[i] = EstimateConjunct(c, est)
	}
	sort.SliceStable(stats, func(i, j int) bool {
		a, b := stats[i], stats[j]
		hi, lo := a.Cost, b.Cost
		if hi < lo {
			hi, lo = lo, hi
		}
		if lo > 0 && hi/lo <= similarityBand {
			// Similar cost: stronger pruner first.
			if a.RejectRate != b.RejectRate {
				return a.RejectRate > b.RejectRate
			}
			return false // stable
		}
		return a.Cost < b.Cost
	})
	out := make([]Expr, len(stats))
	for i, s := range stats {
		out[i] = s.Expr
	}
	return out
}
