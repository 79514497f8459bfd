// Package plan implements the IDS query planner: it orders the basic
// graph pattern greedily by estimated cardinality (most selective
// first, staying connected to already-bound variables), places FILTER
// elements at the earliest point where their variables are bound, and
// carries the solution modifiers. The engine lowers a Plan once per
// query to the physical operators all ranks share, FILTER conjuncts
// compiled there; only the conjuncts' order is chosen later, per rank,
// inside the exec operator, because it depends on rank-local profiling
// data.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"ids/internal/dict"
	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/kg"
	"ids/internal/sparql"
)

// Step is one plan node.
type Step interface{ isStep() }

// ScanStep seeds the solution table from a triple pattern.
type ScanStep struct {
	Pattern sparql.TriplePattern
	Est     int
}

// JoinStep scans a pattern and hash-joins it into the running table.
type JoinStep struct {
	Pattern sparql.TriplePattern
	Est     int
	// OutEst is the planner's estimated output cardinality of the join
	// — the running-stream size after this step under the cost model
	// that ordered it (paper §2.4.3).
	OutEst int
}

// FilterStep applies a FILTER expression.
type FilterStep struct {
	Expr expr.Expr
}

// UnionStep evaluates each branch sub-plan independently and
// concatenates the results (SPARQL UNION, set-theoretic). Branches
// bind exactly Vars, in that column order, and the combined table
// joins into the running solution stream.
type UnionStep struct {
	Branches [][]Step
	Vars     []string
}

// OptionalStep left-joins its body sub-plan into the running stream:
// solutions without a match survive with the body's variables null.
type OptionalStep struct {
	Body []Step
	Vars []string
}

// SimilarStep is a vector-store kNN access path compiled from a
// SIMILAR clause. In access mode (Semi false) it produces the top-K
// hit keys as bindings of the clause variable, joining them into the
// running stream (cross product when the variable is new to a
// non-empty stream). In semi mode (Semi true) the variable is already
// bound, and the step filters the stream to rows whose value is a
// member of the global top-K set.
type SimilarStep struct {
	Sim sparql.SimilarPattern
	// Est is the candidate cardinality of the access path (= K).
	Est int
	// Semi selects membership-filter mode over access mode.
	Semi bool
	// OutEst is the estimated output cardinality of the stream after
	// this step.
	OutEst int
}

// ValuesStep joins an inline VALUES data block into the running
// stream. Like any access path it is costed by the greedy join
// orderer: its Est is the block's row count, and it can seed the
// stream or hash-join in (cross product when it shares no variables).
type ValuesStep struct {
	Values sparql.ValuesPattern
	// Est is the data-block row count.
	Est int
	// OutEst is the estimated output cardinality of the stream after
	// this step.
	OutEst int
}

func (ScanStep) isStep()     {}
func (JoinStep) isStep()     {}
func (FilterStep) isStep()   {}
func (UnionStep) isStep()    {}
func (OptionalStep) isStep() {}
func (SimilarStep) isStep()  {}
func (ValuesStep) isStep()   {}

// Plan is an executable query plan.
type Plan struct {
	Steps    []Step
	Select   []string
	Distinct bool
	// Fingerprint is the query's workload shape hash (see
	// fingerprint.go): literals masked, conjunct order canonicalized,
	// SIMILAR K bucketed. Stamped by Build so every consumer of a plan
	// (engine, traces, insights sketch, flight recorder) shares one
	// value computed once.
	Fingerprint uint64
	OrderBy     []exec.SortKey
	Limit       int
	Offset      int
	// Aggregates and GroupBy turn the gathered result into grouped
	// aggregate rows before ordering and projection.
	Aggregates []exec.AggSpec
	GroupBy    []string
	// Binds are BIND(expr AS ?var) columns computed on the gathered
	// table (every rank holds the full solution set there, so
	// evaluation is deterministic), in query order, before
	// PostFilters, aggregation, ordering, and projection.
	Binds []exec.BindSpec
	// PostFilters are FILTER expressions that reference bind aliases;
	// they run row-locally right after Binds.
	PostFilters []expr.Expr
}

// Explain renders the plan for logs and the CLI.
func (p *Plan) Explain() string {
	var sb strings.Builder
	for i, s := range p.Steps {
		switch n := s.(type) {
		case ScanStep:
			fmt.Fprintf(&sb, "%2d: SCAN %s (est %d)\n", i, n.Pattern, n.Est)
		case JoinStep:
			fmt.Fprintf(&sb, "%2d: JOIN %s (est %d, out %d)\n", i, n.Pattern, n.Est, n.OutEst)
		case FilterStep:
			fmt.Fprintf(&sb, "%2d: FILTER %s\n", i, n.Expr)
		case UnionStep:
			fmt.Fprintf(&sb, "%2d: UNION of %d branches over %v\n", i, len(n.Branches), n.Vars)
		case OptionalStep:
			fmt.Fprintf(&sb, "%2d: OPTIONAL over %v\n", i, n.Vars)
		case SimilarStep:
			mode := "KNN"
			if n.Semi {
				mode = "KNN-SEMI"
			}
			fmt.Fprintf(&sb, "%2d: %s %s (est %d, out %d)\n", i, mode, n.Sim, n.Est, n.OutEst)
		case ValuesStep:
			fmt.Fprintf(&sb, "%2d: VALUES %s (est %d, out %d)\n", i, n.Values, n.Est, n.OutEst)
		}
	}
	if p.Distinct {
		sb.WriteString("    DISTINCT\n")
	}
	for _, b := range p.Binds {
		fmt.Fprintf(&sb, "    BIND(%s AS ?%s)\n", b.Expr, b.Var)
	}
	for _, f := range p.PostFilters {
		fmt.Fprintf(&sb, "    POST-FILTER %s\n", f)
	}
	if len(p.OrderBy) > 0 {
		fmt.Fprintf(&sb, "    ORDER BY %v\n", p.OrderBy)
	}
	if p.Limit >= 0 {
		fmt.Fprintf(&sb, "    LIMIT %d OFFSET %d\n", p.Limit, p.Offset)
	}
	return sb.String()
}

// Stats estimates triple-pattern cardinalities.
type Stats struct {
	Total      int
	Predicates map[dict.ID]int
	// Vectors maps attached vector-store names to their vector counts,
	// so SIMILAR semi-join selectivity (K/N) can be estimated. Nil when
	// no stores are attached.
	Vectors map[string]int
	dict    *dict.Dict
}

// VecCount returns the vector count of the named store; an empty name
// selects the sole attached store. Returns 0 when unknown.
func (st *Stats) VecCount(name string) int {
	if name == "" {
		if len(st.Vectors) == 1 {
			for _, n := range st.Vectors {
				return n
			}
		}
		return 0
	}
	return st.Vectors[name]
}

// StatsFromGraph collects planner statistics from a sealed graph.
func StatsFromGraph(g *kg.Graph) *Stats {
	return &Stats{
		Total:      g.Len(),
		Predicates: g.PredicateStats(),
		dict:       g.Dict,
	}
}

// PatternCard estimates the result cardinality of one pattern.
func (st *Stats) PatternCard(p sparql.TriplePattern) int {
	sB, pB, oB := !p.S.IsVar, !p.P.IsVar, !p.O.IsVar
	predCount := st.Total
	if pB && st.dict != nil {
		if pid, ok := st.dict.Lookup(p.P.Term); ok {
			predCount = st.Predicates[pid]
		} else {
			return 0 // unknown predicate matches nothing
		}
	}
	switch {
	case sB && pB && oB:
		return 1
	case sB && oB:
		return 2
	case sB:
		// Subjects have bounded out-degree in practice.
		return 16
	case pB && oB:
		c := predCount/16 + 1
		return c
	case pB:
		return predCount
	case oB:
		return st.Total/16 + 1
	default:
		return st.Total
	}
}

// Build plans the query. It fails when a selected variable can never
// be bound by the WHERE clause.
func Build(q *sparql.Query, st *Stats) (*Plan, error) {
	p := &Plan{
		Select:      q.Select,
		Distinct:    q.Distinct,
		Limit:       q.Limit,
		Offset:      q.Offset,
		Fingerprint: Fingerprint(q),
	}
	for _, k := range q.OrderBy {
		p.OrderBy = append(p.OrderBy, exec.SortKey{Var: k.Var, Desc: k.Desc})
	}
	for _, a := range q.Aggregates {
		p.Aggregates = append(p.Aggregates, exec.AggSpec{Func: a.Func, Var: a.Var, As: a.As})
	}
	p.GroupBy = q.GroupBy

	// Split off top-level BINDs and the filters that depend on their
	// aliases: both run on the gathered table (see Plan.Binds), so the
	// group compiler below never sees them. BIND nested inside UNION or
	// OPTIONAL is rejected by compileGroup.
	bindAlias := map[string]bool{}
	var binds []sparql.Bind
	for _, el := range q.Where {
		if b, ok := el.(sparql.Bind); ok {
			binds = append(binds, b)
			bindAlias[b.Var] = true
		}
	}
	var groupElems []sparql.Element
	var postFilters []sparql.Filter
	for _, el := range q.Where {
		switch n := el.(type) {
		case sparql.Bind:
			continue
		case sparql.Filter:
			usesAlias := false
			for _, v := range expr.Vars(n.Expr) {
				if bindAlias[v] {
					usesAlias = true
					break
				}
			}
			if usesAlias {
				postFilters = append(postFilters, n)
				continue
			}
			groupElems = append(groupElems, el)
		default:
			groupElems = append(groupElems, el)
		}
	}

	steps, bound, err := compileGroup(groupElems, st)
	if err != nil {
		return nil, err
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("plan: query has no triple patterns")
	}
	p.Steps = steps

	// Validate binds in query order: inputs must be bound by the graph
	// part or an earlier alias, and an alias must be a fresh variable.
	for _, b := range binds {
		if bound[b.Var] {
			return nil, fmt.Errorf("plan: BIND ?%s is already bound", b.Var)
		}
		for _, v := range expr.Vars(b.Expr) {
			if !bound[v] {
				return nil, fmt.Errorf("plan: BIND expression references unbound variable ?%s", v)
			}
		}
		bound[b.Var] = true
		p.Binds = append(p.Binds, exec.BindSpec{Var: b.Var, Expr: b.Expr})
	}
	for _, f := range postFilters {
		for _, v := range expr.Vars(f.Expr) {
			if !bound[v] {
				return nil, fmt.Errorf("plan: FILTER references unbound variable(s): %s", f.Expr)
			}
		}
		p.PostFilters = append(p.PostFilters, f.Expr)
	}

	aliases := map[string]bool{}
	grouped := map[string]bool{}
	for _, a := range q.Aggregates {
		aliases[a.As] = true
		if a.Var != "" && !bound[a.Var] {
			return nil, fmt.Errorf("plan: aggregate over unbound variable ?%s", a.Var)
		}
	}
	for _, g := range q.GroupBy {
		grouped[g] = true
		if !bound[g] {
			return nil, fmt.Errorf("plan: GROUP BY variable ?%s is never bound", g)
		}
	}
	if len(q.GroupBy) > 0 && len(q.Aggregates) == 0 {
		return nil, fmt.Errorf("plan: GROUP BY without aggregates")
	}
	for _, v := range q.Select {
		if aliases[v] {
			continue
		}
		if len(q.Aggregates) > 0 && !grouped[v] {
			return nil, fmt.Errorf("plan: selected variable ?%s is neither grouped nor aggregated", v)
		}
		if !bound[v] {
			return nil, fmt.Errorf("plan: selected variable ?%s is never bound", v)
		}
	}
	for _, k := range p.OrderBy {
		if aliases[k.Var] {
			continue
		}
		if !bound[k.Var] {
			return nil, fmt.Errorf("plan: ORDER BY variable ?%s is never bound", k.Var)
		}
	}
	return p, nil
}

// compileGroup compiles one group of WHERE elements (the top level or
// a UNION branch) into steps, returning the variables it binds.
// Triple patterns are ordered greedily by estimated cardinality with
// the filter-enabling boost; filters attach at the earliest point
// their variables are bound; UNION sub-groups compile recursively and
// join in after the plain patterns.
func compileGroup(elems []sparql.Element, st *Stats) ([]Step, map[string]bool, error) {
	var pats []sparql.TriplePattern
	var filters []sparql.Filter
	var unions []sparql.UnionPattern
	var optionals []sparql.OptionalPattern
	var sims []sparql.SimilarPattern
	var vals []sparql.ValuesPattern
	for _, el := range elems {
		switch n := el.(type) {
		case sparql.TriplePattern:
			pats = append(pats, n)
		case sparql.Filter:
			filters = append(filters, n)
		case sparql.UnionPattern:
			unions = append(unions, n)
		case sparql.OptionalPattern:
			optionals = append(optionals, n)
		case sparql.SimilarPattern:
			sims = append(sims, n)
		case sparql.ValuesPattern:
			vals = append(vals, n)
		case sparql.Bind:
			// Build strips top-level binds before compiling; reaching
			// one here means it sits inside a UNION branch or OPTIONAL
			// body, where the gathered-table execution point is wrong.
			return nil, nil, fmt.Errorf("plan: BIND inside UNION/OPTIONAL groups is not supported")
		}
	}

	var steps []Step
	bound := map[string]bool{}
	used := make([]bool, len(pats))
	simUsed := make([]bool, len(sims))
	valUsed := make([]bool, len(vals))
	filterUsed := make([]bool, len(filters))

	connected := func(tp sparql.TriplePattern) bool {
		for _, v := range tp.Vars() {
			if bound[v] {
				return true
			}
		}
		return false
	}
	// enablesFilter reports whether adding tp's variables completes
	// the variable set of a pending UDF filter. Such patterns are
	// strongly preferred: pruning filters exist to cut the search
	// space early (the paper orders its UDF ladder "by increasing
	// cost and pruning power"), so the planner assumes an enabled
	// filter is highly selective.
	enablesFilter := func(vars []string) bool {
		newBound := map[string]bool{}
		for v := range bound {
			newBound[v] = true
		}
		for _, v := range vars {
			newBound[v] = true
		}
		for i, f := range filters {
			if filterUsed[i] || len(expr.CallNames(f.Expr)) == 0 {
				continue
			}
			all := true
			wasReady := true
			for _, v := range expr.Vars(f.Expr) {
				if !newBound[v] {
					all = false
					break
				}
				if !bound[v] {
					wasReady = false
				}
			}
			if all && !wasReady {
				return true
			}
		}
		return false
	}
	// filterBoost is the assumed selectivity credit of enabling a UDF
	// filter (see DESIGN.md: planner heuristics).
	const filterBoost = 1000
	// curCard is the estimated cardinality of the running solution
	// stream, propagated through the join-tree cost model below.
	curCard := 0
	// joinOutEst estimates the output cardinality of joining the
	// running stream (curCard rows) with tp (paper §2.4.3): the
	// classic |R ⋈ S| = |R|·|S| / Π dv(v) over the k shared variables,
	// with the per-variable distinct-value count approximated by the
	// pattern's own cardinality (each matched triple tends to bind a
	// distinct value for its variables). k = 0 is a cross product.
	joinOutEst := func(vars []string, patCard int) int {
		k := 0
		for _, v := range vars {
			if bound[v] {
				k++
			}
		}
		out := float64(curCard) * float64(patCard)
		dv := float64(patCard)
		if dv < 1 {
			dv = 1
		}
		for j := 0; j < k; j++ {
			out /= dv
		}
		if out > float64(st.Total)*float64(st.Total) {
			out = float64(st.Total) * float64(st.Total)
		}
		return int(out)
	}
	// simOutEst estimates the output of a SIMILAR step given the
	// running stream. Semi mode keeps the K/N fraction of the stream
	// (membership in the global top-K set); access mode over a
	// non-empty stream is a join on no shared variables, i.e. a cross
	// product with the K hits.
	simOutEst := func(sp sparql.SimilarPattern, semi bool) int {
		if !semi {
			return joinOutEst([]string{sp.Var}, sp.K)
		}
		n := st.VecCount(sp.Store)
		if n < sp.K {
			// Unknown store size: assume a mildly selective semi-join.
			n = sp.K * 16
		}
		out := int(float64(curCard) * float64(sp.K) / float64(n))
		if out < 1 {
			out = 1
		}
		return out
	}
	// pickNext chooses the next access path — triple pattern or SIMILAR
	// clause. The first pick is the plain cardinality minimum (with the
	// filter-enabling boost); later picks minimize a join cost =
	// build-side size + estimated output cardinality, so a small
	// pattern that would explode the stream loses to a slightly larger
	// one that keeps it narrow. A SIMILAR clause costs its candidate K
	// as an access path and the semi-join output when its variable is
	// already bound.
	pickNext := func(requireConnected, first bool) (idx, simIdx, valIdx, outEst int) {
		best, bestSim, bestVal, bestCost, bestOut := -1, -1, -1, 0, 0
		none := func() bool { return best < 0 && bestSim < 0 && bestVal < 0 }
		for i, tp := range pats {
			if used[i] {
				continue
			}
			if requireConnected && !connected(tp) {
				continue
			}
			card := st.PatternCard(tp)
			var cost, out int
			if first {
				cost = card
				if enablesFilter(tp.Vars()) {
					cost = cost/filterBoost + 1
				}
				out = card
			} else {
				out = joinOutEst(tp.Vars(), card)
				if enablesFilter(tp.Vars()) {
					// An enabled pruning filter runs immediately after
					// this join and is assumed highly selective.
					out = out/filterBoost + 1
				}
				cost = card + out
			}
			if none() || cost < bestCost {
				best, bestSim, bestVal, bestCost, bestOut = i, -1, -1, cost, out
			}
		}
		for i, sp := range sims {
			if simUsed[i] {
				continue
			}
			semi := bound[sp.Var]
			if requireConnected && !semi {
				continue
			}
			var cost, out int
			if first {
				cost = sp.K
				if enablesFilter([]string{sp.Var}) {
					cost = cost/filterBoost + 1
				}
				out = sp.K
			} else if semi {
				out = simOutEst(sp, true)
				// Membership probe over the stream; no build side beyond
				// the K-hit set.
				cost = sp.K + out
			} else {
				out = simOutEst(sp, false)
				if enablesFilter([]string{sp.Var}) {
					out = out/filterBoost + 1
				}
				cost = sp.K + out
			}
			if none() || cost < bestCost {
				best, bestSim, bestVal, bestCost, bestOut = -1, i, -1, cost, out
			}
		}
		for i, vp := range vals {
			if valUsed[i] {
				continue
			}
			if requireConnected {
				conn := false
				for _, v := range vp.Vars {
					if bound[v] {
						conn = true
						break
					}
				}
				if !conn {
					continue
				}
			}
			card := len(vp.Rows)
			var cost, out int
			if first {
				cost = card
				if enablesFilter(vp.Vars) {
					cost = cost/filterBoost + 1
				}
				out = card
			} else {
				out = joinOutEst(vp.Vars, card)
				if enablesFilter(vp.Vars) {
					out = out/filterBoost + 1
				}
				cost = card + out
			}
			if none() || cost < bestCost {
				best, bestSim, bestVal, bestCost, bestOut = -1, -1, i, cost, out
			}
		}
		return best, bestSim, bestVal, bestOut
	}
	attachFilters := func() {
		for i, f := range filters {
			if filterUsed[i] {
				continue
			}
			ready := true
			for _, v := range expr.Vars(f.Expr) {
				if !bound[v] {
					ready = false
					break
				}
			}
			if ready {
				steps = append(steps, FilterStep{Expr: f.Expr})
				filterUsed[i] = true
			}
		}
	}

	for n := 0; n < len(pats)+len(sims)+len(vals); n++ {
		idx, simIdx, valIdx, outEst := pickNext(n > 0, n == 0)
		if idx < 0 && simIdx < 0 && valIdx < 0 {
			// Disconnected pattern group: take the cheapest remaining
			// (executes as a cross product).
			idx, simIdx, valIdx, outEst = pickNext(false, n == 0)
		}
		var newVars []string
		if valIdx >= 0 {
			vp := vals[valIdx]
			valUsed[valIdx] = true
			steps = append(steps, ValuesStep{
				Values: vp,
				Est:    len(vp.Rows),
				OutEst: outEst,
			})
			newVars = vp.Vars
		} else if simIdx >= 0 {
			sp := sims[simIdx]
			simUsed[simIdx] = true
			steps = append(steps, SimilarStep{
				Sim:    sp,
				Est:    sp.K,
				Semi:   bound[sp.Var],
				OutEst: outEst,
			})
			newVars = []string{sp.Var}
		} else {
			tp := pats[idx]
			used[idx] = true
			card := st.PatternCard(tp)
			if n == 0 {
				steps = append(steps, ScanStep{Pattern: tp, Est: card})
			} else {
				steps = append(steps, JoinStep{Pattern: tp, Est: card, OutEst: outEst})
			}
			newVars = tp.Vars()
		}
		curCard = outEst
		if curCard < 1 {
			curCard = 1
		}
		for _, v := range newVars {
			bound[v] = true
		}
		attachFilters()
	}

	for _, u := range unions {
		var branches [][]Step
		var unionVars []string
		for bi, branch := range u.Branches {
			bs, bBound, err := compileGroup(branch, st)
			if err != nil {
				return nil, nil, err
			}
			vars := sortedVars(bBound)
			if bi == 0 {
				unionVars = vars
			} else if !equalStrings(unionVars, vars) {
				return nil, nil, fmt.Errorf(
					"plan: UNION branches bind different variables: %v vs %v", unionVars, vars)
			}
			branches = append(branches, bs)
		}
		steps = append(steps, UnionStep{Branches: branches, Vars: unionVars})
		for _, v := range unionVars {
			bound[v] = true
		}
		attachFilters()
	}

	// OPTIONAL groups left-join in after the mandatory part so their
	// absence cannot shrink the solution set. Their variables count as
	// bound for later filters and projection (rows may carry nulls;
	// filter evaluation over null follows SPARQL error-drops-row
	// semantics).
	for _, opt := range optionals {
		bs, bBound, err := compileGroup(opt.Body, st)
		if err != nil {
			return nil, nil, err
		}
		steps = append(steps, OptionalStep{Body: bs, Vars: sortedVars(bBound)})
		for v := range bBound {
			bound[v] = true
		}
		attachFilters()
	}

	// Any filter still unplaced references an unbound variable.
	for i, f := range filters {
		if !filterUsed[i] {
			return nil, nil, fmt.Errorf("plan: FILTER references unbound variable(s): %s", f.Expr)
		}
	}
	return steps, bound, nil
}

func sortedVars(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
