package exec

import "sort"

// This file implements solution re-balancing (paper §2.4.2). IDS
// re-balances intermediate solutions across ranks between operators.
// Plain count-based balancing equalizes row counts; cost-aware
// balancing uses the per-rank UDF throughput estimates so slower ranks
// receive proportionally fewer solutions. When all ranks report
// similar throughput (within ~20% of the slowest), the cost-aware mode
// falls back to count-based balancing, exactly as the paper specifies.

// RebalanceMode selects the balancing policy.
type RebalanceMode int

// Balancing policies.
const (
	RebalanceNone RebalanceMode = iota
	RebalanceCount
	RebalanceCost
)

func (m RebalanceMode) String() string {
	switch m {
	case RebalanceCount:
		return "count"
	case RebalanceCost:
		return "cost"
	default:
		return "none"
	}
}

// speedSimilarityBand is the throughput ratio under which cost-aware
// balancing degenerates to count-based (the paper's ~20%).
const speedSimilarityBand = 1.2

// CountTargets assigns total rows as evenly as possible over p ranks.
func CountTargets(total, p int) []int {
	out := make([]int, p)
	base := total / p
	rem := total % p
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}

// CostTargets assigns total rows proportionally to each rank's
// throughput (solutions/second). Remainders go to the fastest ranks.
// This realizes the paper's chunk_size × rank_ratio assignment: each
// rank's share is total × rate_i / Σrate.
func CostTargets(total int, rates []float64) []int {
	p := len(rates)
	sum := 0.0
	for _, r := range rates {
		if r > 0 {
			sum += r
		}
	}
	out := make([]int, p)
	if sum <= 0 {
		return CountTargets(total, p)
	}
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, p)
	assigned := 0
	for i, r := range rates {
		if r < 0 {
			r = 0
		}
		share := float64(total) * r / sum
		out[i] = int(share)
		assigned += out[i]
		fracs[i] = frac{i, share - float64(out[i])}
	}
	// Distribute the remainder by largest fractional part, breaking
	// ties by higher rate then lower rank id (deterministic on every
	// rank; sorted once so the distribution is O(P log P)).
	sort.SliceStable(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return rates[fracs[a].i] > rates[fracs[b].i]
	})
	for j := 0; assigned < total && j < len(fracs); j++ {
		out[fracs[j].i]++
		assigned++
	}
	// A pathological rounding deficit larger than P is impossible
	// (each share loses < 1), but guard for safety.
	for i := 0; assigned < total; i = (i + 1) % p {
		out[i]++
		assigned++
	}
	return out
}

// SendRow computes rank me's row of the deterministic redistribution
// matrix: how many rows rank me sends to each rank, surplus ranks
// walked against deficit ranks in rank order. O(P) memory, so every
// rank evaluates it locally from the same inputs.
func SendRow(current, target []int, me int) []int {
	out := make([]int, len(current))
	walkTransfers(current, target, func(src, dst, n int) {
		if src == me {
			out[dst] += n
		}
	})
	return out
}

// walkTransfers runs the deterministic two-pointer surplus/deficit
// walk, invoking move for every transfer. It mutates current.
func walkTransfers(current, target []int, move func(src, dst, n int)) {
	p := len(current)
	src, dst := 0, 0
	surplus := func(i int) int { return current[i] - target[i] }
	for src < p && dst < p {
		for src < p && surplus(src) <= 0 {
			src++
		}
		for dst < p && surplus(dst) >= 0 {
			dst++
		}
		if src >= p || dst >= p {
			break
		}
		n := surplus(src)
		if need := -surplus(dst); need < n {
			n = need
		}
		move(src, dst, n)
		current[src] -= n
		current[dst] += n
	}
}

// EstimatedMakespan returns max_i(count_i / rate_i) — the completion
// time bound of independent per-rank UDF evaluation, used by the
// re-balancing ablation to reproduce the paper's worked example.
func EstimatedMakespan(counts []int, rates []float64) float64 {
	worst := 0.0
	for i, c := range counts {
		r := rates[i]
		if r <= 0 {
			continue
		}
		if t := float64(c) / r; t > worst {
			worst = t
		}
	}
	return worst
}

// RebalanceInfo reports what re-balancing did on one rank: how many
// rows it shipped out and pulled in (the paper's migrated chunks).
type RebalanceInfo struct {
	Sent     int
	Received int
}
