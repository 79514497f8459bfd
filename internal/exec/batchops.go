package exec

import (
	"log/slog"
	"slices"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/sparql"
	"ids/internal/triple"
	"ids/internal/udf"
)

// Columnar physical operators: the pre-gather pipeline flows dict.ID
// column vectors through an arena. Each operator charges its modeled
// cost to the rank's virtual clock and its exchanges to the network
// model (AllToAllSized/AllGatherSized charge batch row counts).

// scanCostPerTriple is the modeled in-memory scan cost per matched
// triple (tens of nanoseconds, CGE-like); charged to the rank clock so
// scans show up in the phase breakdown with realistic scaling.
const scanCostPerTriple = 5e-8

// joinCostPerRow is the modeled hash-join cost per probed row.
const joinCostPerRow = 1e-7

// PatternVars is the header a scan of pat gives: its variables in S, P,
// O order of first appearance.
func PatternVars(pat sparql.TriplePattern) []string {
	var vars []string
	for _, tv := range [3]sparql.TermOrVar{pat.S, pat.P, pat.O} {
		if tv.IsVar && !slices.Contains(vars, tv.Var) {
			vars = append(vars, tv.Var)
		}
	}
	return vars
}

// patternLayout resolves pat's constant terms against d and lays out
// its variables as PatternVars: col[i] is the output column of position
// i (S, P, O), -1 for a constant. ok is false when a constant is absent
// from the dictionary (nothing matches).
func patternLayout(d *dict.Dict, pat sparql.TriplePattern) (tp triple.Pattern, vars []string, col [3]int, ok bool) {
	ok, vars = true, PatternVars(pat)
	var ids [3]dict.ID
	for i, tv := range [3]sparql.TermOrVar{pat.S, pat.P, pat.O} {
		col[i] = slices.Index(vars, tv.Var)
		if !tv.IsVar {
			id, found := d.Lookup(tv.Term)
			ids[i], ok, col[i] = id, ok && found, -1
		}
	}
	return triple.Pattern{S: ids[0], P: ids[1], O: ids[2]}, vars, col, ok
}

// bindTriple writes t's components into vals by layout col. Repeated
// variables within the pattern are equality constraints: false when the
// components they bind disagree.
func bindTriple(t triple.Triple, col [3]int, vals *[3]dict.ID) bool {
	var set [3]bool
	for i, id := range [3]dict.ID{t.S, t.P, t.O} {
		c := col[i]
		if c < 0 {
			continue
		}
		if set[c] {
			if vals[c] != id {
				return false
			}
			continue
		}
		set[c], vals[c] = true, id
	}
	return true
}

// ScanBatch matches a triple pattern against the rank's shard and
// returns the local bindings as ID column vectors. Repeated variables
// within the pattern are enforced as equality constraints.
func ScanBatch(r *mpp.Rank, shard *triple.Store, d *dict.Dict, pat sparql.TriplePattern, a *Arena) (*Batch, error) {
	tp, vars, col, ok := patternLayout(d, pat)
	out := NewBatch(vars...)
	if !ok {
		return out, nil
	}
	capacity := shard.Count(tp)
	for c := range out.Cols {
		out.Cols[c] = a.AllocIDs(capacity)
	}
	rows, matched := 0, 0
	shard.Match(tp, func(t triple.Triple) bool {
		matched++
		var vals [3]dict.ID
		if bindTriple(t, col, &vals) {
			for c := range out.Cols {
				out.Cols[c][rows] = vals[c]
			}
			rows++
		}
		return true
	})
	for c := range out.Cols {
		out.Cols[c] = out.Cols[c][:rows]
	}
	out.NRows = rows
	r.Charge(float64(matched) * scanCostPerTriple)
	return out, nil
}

// ProbeJoinBatch joins pat into left through the shard's spo index: for
// each left row it matches pat with its subject bound to the row's
// keyCol cell — one subject range per row, no exchange. pat's subject
// must be the variable of left's column keyCol. It is a join only when
// every left row sits on the rank that owns its key as a subject (each
// triple lives on the shard of its subject, kg.Graph.ShardOf) and pat
// shares no other variable with left; the engine decides that from the
// plan alone. The output header is the hash join's: left's columns,
// then pat's new variables. matched counts the triples the probes
// touched.
func ProbeJoinBatch(r *mpp.Rank, shard *triple.Store, d *dict.Dict, left *Batch, keyCol int, pat sparql.TriplePattern, a *Arena) (out *Batch, matched int) {
	tp, vars, col, ok := patternLayout(d, pat)
	// Pattern column 0 is the subject, which left already carries; the
	// others follow left's columns.
	nl := len(left.Vars)
	outVars := append(left.Vars[:nl:nl], vars[1:]...)
	// One subject range per row: sel collects the left row of each
	// match and binds its pattern bindings; the columns are built to
	// size from them.
	keys := left.Cols[keyCol]
	sel, binds := scratch(a, &a.sel, left.NRows)[:0], a.binds[:0]
	for i := 0; i < left.NRows && ok; i++ {
		if tp.S = keys[i]; tp.S == dict.None {
			continue // an unbound key is no subject: a wildcard would match all
		}
		shard.Match(tp, func(t triple.Triple) bool {
			matched++
			var vals [3]dict.ID
			if bindTriple(t, col, &vals) {
				sel = append(sel, int32(i))
				binds = append(binds, vals)
			}
			return true
		})
	}
	n := len(sel)
	out = &Batch{Vars: outVars, Cols: a.AllocCols(len(outVars)), NRows: n}
	for c := range out.Cols {
		to := a.AllocIDs(n)
		if c < nl {
			for k, li := range sel {
				to[k] = left.Cols[c][li]
			}
		} else {
			for k := range binds {
				to[k] = binds[k][c-nl+1]
			}
		}
		out.Cols[c] = to
	}
	saveScratch(a, &a.sel, sel)
	saveScratch(a, &a.binds, binds)
	r.Charge(float64(matched)*scanCostPerTriple + float64(left.NRows)*joinCostPerRow)
	return out, matched
}

// sharedVarsBatch returns the variables common to both headers.
func sharedVarsBatch(a, b *Batch) []string {
	var out []string
	for _, v := range a.Vars {
		if b.Col(v) >= 0 {
			out = append(out, v)
		}
	}
	return out
}

// partitionBatch routes each row to the rank owning its join key and
// returns the p send chunks (arena-backed, counting-sort layout).
func partitionBatch(a *Arena, b *Batch, keyIdx []int, p int) []batchChunk {
	n := b.NRows
	hv := a.AllocIDs(n) // hash scratch: dict.ID is uint64
	// Counting-sort counters live in one reused int scratch: counts,
	// offsets (p+1) and cursors back to back.
	s := scratch(a, &a.parts, 3*p+1)
	counts, offs, cur := s[0:p], s[p:2*p+1], s[2*p+1:3*p+1]
	for d := range counts {
		counts[d] = 0
	}
	for i := 0; i < n; i++ {
		h := hashBatchRow(b.Cols, keyIdx, i)
		hv[i] = dict.ID(h)
		counts[h%uint64(p)]++
	}
	offs[0] = 0
	for d := 0; d < p; d++ {
		offs[d+1] = offs[d] + counts[d]
	}
	sel := scratch(a, &a.sel, n)
	copy(cur, offs[:p])
	for i := 0; i < n; i++ {
		d := uint64(hv[i]) % uint64(p)
		sel[cur[d]] = int32(i)
		cur[d]++
	}
	send := scratch(a, &a.chunks, p)
	for d := 0; d < p; d++ {
		send[d] = selChunk(a, b, sel[offs[d]:offs[d+1]])
	}
	return send
}

// buildBatch indexes the build side's rows into the arena's reusable
// hash-build structure.
func buildBatch(a *Arena, b *Batch, keyIdx []int) *hashBuild {
	hb := a.buildFor(b.NRows)
	for i := 0; i < b.NRows; i++ {
		head := hb.bucket(hashBatchRow(b.Cols, keyIdx, i))
		hb.next[i], *head = *head, int32(i)
	}
	return hb
}

// joinOutput gathers the probe/build row pairs into the join's output
// batch. rsel entries of -1 null-extend (LeftJoin).
func joinOutput(a *Arena, outVars []string, lb *Batch, lsel []int32, rb *Batch, rAppend []int, rsel []int32) *Batch {
	nout := len(lsel)
	out := &Batch{Vars: outVars, Cols: make([][]dict.ID, len(outVars)), NRows: nout}
	for j := range lb.Vars {
		dst := a.AllocIDs(nout)
		col := lb.Cols[j]
		for k, li := range lsel {
			dst[k] = col[li]
		}
		out.Cols[j] = dst
	}
	for j, rc := range rAppend {
		dst := a.AllocIDs(nout)
		col := rb.Cols[rc]
		for k, ri := range rsel {
			if ri >= 0 {
				dst[k] = col[ri]
			} else {
				dst[k] = dict.None
			}
		}
		out.Cols[len(lb.Vars)+j] = dst
	}
	return out
}

// JoinHeader computes a join's output header — left's columns, then
// right's that left lacks — and the right-side columns appended.
func JoinHeader(left, right []string) (outVars []string, rAppend []int) {
	outVars = append([]string{}, left...)
	for i, v := range right {
		if !slices.Contains(left, v) {
			outVars = append(outVars, v)
			rAppend = append(rAppend, i)
		}
	}
	return outVars, rAppend
}

// crossJoinBatch replicates the right side and produces the cross
// product (leftJoin additionally null-extends when the right side is
// globally empty).
func crossJoinBatch(r *mpp.Rank, left, right *Batch, a *Arena, leftJoin bool) (*Batch, error) {
	outVars, rAppend := JoinHeader(left.Vars, right.Vars)
	allRight, err := mpp.AllGatherSized(r, sliceChunk(a, right, 0, right.NRows), chunkRows)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, part := range allRight {
		total += part.n
	}
	if total == 0 && leftJoin {
		// Null-extend every left row.
		out := &Batch{Vars: outVars, Cols: make([][]dict.ID, len(outVars)), NRows: left.NRows}
		copy(out.Cols, left.Cols)
		for j := range rAppend {
			dst := a.AllocIDs(left.NRows)
			for k := range dst {
				dst[k] = dict.None
			}
			out.Cols[len(left.Vars)+j] = dst
		}
		r.Charge(float64(left.NRows) * joinCostPerRow)
		return out, nil
	}
	nout := left.NRows * total
	out := &Batch{Vars: outVars, Cols: make([][]dict.ID, len(outVars)), NRows: nout}
	for j := range outVars {
		out.Cols[j] = a.AllocIDs(nout)
	}
	k := 0
	for lr := 0; lr < left.NRows; lr++ {
		for _, part := range allRight {
			for i := 0; i < part.n; i++ {
				for j := range left.Vars {
					out.Cols[j][k] = left.Cols[j][lr]
				}
				for j, rc := range rAppend {
					out.Cols[len(left.Vars)+j][k] = part.cols[rc][i]
				}
				k++
			}
		}
	}
	r.Charge(float64(nout) * joinCostPerRow)
	return out, nil
}

// HashJoinBatch is the columnar distributed hash join: both sides are
// hash-repartitioned across ranks by join key (AllToAll exchanges of
// column chunks), the right side builds, the left side probes, and the
// matching row pairs gather column-wise into the output.
func HashJoinBatch(r *mpp.Rank, left, right *Batch, a *Arena) (*Batch, error) {
	return hashJoinBatch(r, left, right, a, false)
}

// LeftJoinBatch joins right into left with OPTIONAL semantics: left
// rows without a match survive with dict.None in the right columns.
func LeftJoinBatch(r *mpp.Rank, left, right *Batch, a *Arena) (*Batch, error) {
	return hashJoinBatch(r, left, right, a, true)
}

func hashJoinBatch(r *mpp.Rank, left, right *Batch, a *Arena, leftJoin bool) (*Batch, error) {
	shared := sharedVarsBatch(left, right)
	if len(shared) == 0 {
		return crossJoinBatch(r, left, right, a, leftJoin)
	}
	outVars, rAppend := JoinHeader(left.Vars, right.Vars)
	p := r.Size()
	lIdx := make([]int, len(shared))
	rIdx := make([]int, len(shared))
	for i, v := range shared {
		lIdx[i] = left.Col(v)
		rIdx[i] = right.Col(v)
	}
	lRecv, err := mpp.AllToAllSized(r, partitionBatch(a, left, lIdx, p), chunkRows)
	if err != nil {
		return nil, err
	}
	rRecv, err := mpp.AllToAllSized(r, partitionBatch(a, right, rIdx, p), chunkRows)
	if err != nil {
		return nil, err
	}
	lb := concatChunks(a, left.Vars, lRecv)
	rb := concatChunks(a, right.Vars, rRecv)

	hb := buildBatch(a, rb, rIdx)
	lsel := scratch(a, &a.sel, lb.NRows)[:0]
	rsel := scratch(a, &a.selB, lb.NRows)[:0]
	probes := 0
	for i := 0; i < lb.NRows; i++ {
		probes++
		matched := false
		for j := *hb.bucket(hashBatchRow(lb.Cols, lIdx, i)); j >= 0; j = hb.next[j] {
			if batchKeyEqual(lb.Cols, lIdx, i, rb.Cols, rIdx, int(j)) {
				matched = true
				lsel = append(lsel, int32(i))
				rsel = append(rsel, int32(j))
			}
		}
		if !matched && leftJoin {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, -1)
		}
	}
	out := joinOutput(a, outVars, lb, lsel, rb, rAppend, rsel)
	saveScratch(a, &a.sel, lsel)
	saveScratch(a, &a.selB, rsel)
	r.Charge(float64(probes+out.NRows) * joinCostPerRow)
	return out, nil
}

// RootRank is the rank that concatenates a gathered result and runs
// what follows the gather.
const RootRank = 0

// GatherBatch concentrates all rows of the distributed batch: the root
// concatenates them once into its arena and every rank returns that
// one batch, read-only.
func GatherBatch(r *mpp.Rank, b *Batch, a *Arena) (*Batch, error) {
	return GatherBatchTo(r, b, a, func(all *Batch) (*Batch, error) { return all, nil })
}

// GatherBatchTo is GatherBatch with the work that follows the gather
// folded in: finish runs on the root only, on the concatenated batch,
// and every rank returns its result (see mpp.GatherRoot).
func GatherBatchTo[R any](r *mpp.Rank, b *Batch, a *Arena, finish func(all *Batch) (R, error)) (R, error) {
	return mpp.GatherRoot(r, RootRank, sliceChunk(a, b, 0, b.NRows), chunkRows,
		func(parts []batchChunk) (R, error) { return finish(concatChunks(a, b.Vars, parts)) })
}

// DistinctLocalBatch removes duplicate rows within this rank's
// partition, preserving first-seen order.
func DistinctLocalBatch(b *Batch, a *Arena) *Batch {
	allIdx := make([]int, len(b.Vars))
	for i := range allIdx {
		allIdx[i] = i
	}
	hb := a.buildFor(b.NRows)
	keep := scratch(a, &a.sel, b.NRows)[:0]
	for i := 0; i < b.NRows; i++ {
		head := hb.bucket(hashBatchRow(b.Cols, allIdx, i))
		dup := false
		for j := *head; j >= 0 && !dup; j = hb.next[j] {
			dup = batchKeyEqual(b.Cols, allIdx, i, b.Cols, allIdx, int(j))
		}
		if dup {
			continue
		}
		hb.next[i], *head = *head, int32(i)
		keep = append(keep, int32(i))
	}
	out := gatherBatch(a, b, keep)
	saveScratch(a, &a.sel, keep)
	return out
}

// DistinctGlobalBatch removes duplicates across ranks: rows hash-
// partition so duplicates meet on one rank, then deduplicate locally.
func DistinctGlobalBatch(r *mpp.Rank, b *Batch, a *Arena) (*Batch, error) {
	allIdx := make([]int, len(b.Vars))
	for i := range allIdx {
		allIdx[i] = i
	}
	recv, err := mpp.AllToAllSized(r, partitionBatch(a, b, allIdx, r.Size()), chunkRows)
	if err != nil {
		return nil, err
	}
	return DistinctLocalBatch(concatChunks(a, b.Vars, recv), a), nil
}

// ConcatBatches concatenates same-header batches (UNION).
func ConcatBatches(a *Arena, vars []string, parts []*Batch) *Batch {
	chunks := make([]batchChunk, len(parts))
	for i, p := range parts {
		chunks[i] = sliceChunk(a, p, 0, p.NRows)
	}
	return concatChunks(a, vars, chunks)
}

// FilterBatch evaluates e against every row of the batch, keeping rows
// whose effective boolean value is true: it compiles e for the batch's
// header and runs Filter.Run.
func FilterBatch(r *mpp.Rank, b *Batch, e expr.Expr, funcs expr.FuncResolver,
	prof *udf.Profiler, res expr.Resolver, opts FilterOpts, a *Arena) (*Batch, FilterStats, error) {
	return CompileFilter(e, b.Vars, funcs).Run(r, b, prof, res, opts, a)
}

// Filter is a FILTER compiled for one input layout: its conjuncts and
// one program each. It is read-only once compiled, so the ranks of a
// query share it; each evaluates it in its own arena's frame.
type Filter struct {
	Chain []expr.Expr
	progs []*expr.Prog
}

// CompileFilter compiles e's conjuncts for rows laid out as vars.
func CompileFilter(e expr.Expr, vars []string, funcs expr.FuncResolver) *Filter {
	flt := &Filter{Chain: expr.Conjuncts(e)}
	flt.progs = make([]*expr.Prog, len(flt.Chain))
	for k, c := range flt.Chain {
		flt.progs[k] = expr.Compile(c, vars, funcs)
	}
	return flt
}

// Run evaluates the filter against every row of b, whose header must be
// the layout it was compiled for. UDF calls are profiled per rank
// (execution count, total time, rejections) and their virtual cost is
// charged to the rank clock. Rows whose evaluation errors are dropped,
// following SPARQL semantics. Ranks reorder and re-balance
// independently; the caller synchronizes afterwards.
//
// Each conjunct runs over the rows every earlier conjunct kept — the
// rows a row-at-a-time short circuit reaches. Calls of a pure UDF on
// columns and constants are first answered from the memo for the whole
// selection at once (probeMemo). The calls' charges are replayed
// afterwards in row order (replayCalls), so the clock and the profile
// add the same numbers in the same order as row-at-a-time evaluation.
func (flt *Filter) Run(r *mpp.Rank, b *Batch, prof *udf.Profiler, res expr.Resolver, opts FilterOpts, a *Arena) (*Batch, FilterStats, error) {
	if opts.SpeedFactor <= 0 {
		opts.SpeedFactor = 1
	}
	chain, progs := flt.Chain, flt.progs
	if opts.Reorder {
		chain, progs = expr.ReorderChain(chain, prof), scratch(a, &a.progs, len(chain))
		for k, c := range chain {
			progs[k] = flt.progs[slices.Index(flt.Chain, c)]
		}
	}
	if opts.Logger != nil && opts.Logger.Enabled(opts.logCtx(), slog.LevelDebug) && len(chain) > 1 {
		opts.Logger.DebugContext(opts.logCtx(), "filter conjunct order",
			"rank", r.ID(), "reordered", opts.Reorder, "order", chain)
	}

	// Cost-aware re-balancing needs this rank's throughput estimate:
	// seconds per solution across the (reordered) chain, from the
	// profile.
	stats := FilterStats{RowsBefore: b.Len(), Chain: chain}
	if opts.Rebalance != RebalanceNone {
		secPerSol := 0.0
		for _, c := range chain {
			secPerSol += expr.EstimateConjunct(c, prof).Cost
		}
		rate := 1e9 // effectively free when nothing is profiled
		if secPerSol > 0 {
			rate = 1 / secPerSol
		}
		vt0 := r.Now()
		var err error
		b, stats.Rebalance, err = RebalanceBatchCounted(r, b, opts.Rebalance, rate, a)
		if err != nil {
			return nil, FilterStats{}, err
		}
		stats.RebalanceSeconds = r.Now() - vt0
		if opts.Logger != nil && (stats.Rebalance.Sent > 0 || stats.Rebalance.Received > 0) {
			opts.Logger.DebugContext(opts.logCtx(), "filter rebalanced solutions",
				"rank", r.ID(), "rows_before", stats.RowsBefore,
				"sent", stats.Rebalance.Sent, "received", stats.Rebalance.Received,
				"vt_seconds", stats.RebalanceSeconds)
		}
	}

	// fail[i] is the conjunct row i failed (len(chain) if it passed);
	// starts[k] is where conjunct k's call records begin.
	f := &a.frame
	f.Vals, f.Terms, f.Calls = scratch(a, &f.Vals, len(b.Vars)), res, f.Calls[:0]
	calls := f.Calls
	sel, fail := scratch(a, &a.sel, b.NRows)[:0], scratch(a, &a.selB, b.NRows)
	for i := 0; i < b.NRows; i++ {
		sel, fail[i] = append(sel, int32(i)), int32(len(chain))
	}
	starts := scratch(a, &a.parts, 3*len(chain)+1)
	for k, p := range progs {
		starts[k] = len(f.Calls)
		memo := memoSites(a, f, p)
		kept := sel[:0] // filtered in place: kept never overtakes the chunk read
		for lo := 0; lo < len(sel); lo += probeRows {
			chunk := sel[lo:min(lo+probeRows, len(sel))]
			if memo {
				probeMemo(a, b, p, f, chunk)
			}
			for pos, i := range chunk {
				f.Pos, f.Row = pos, i
				loadRow(f, b, p.Slots, i)
				if v, err := p.Eval(f); err == nil && v.Truthy() {
					kept = append(kept, i)
				} else {
					fail[i] = int32(k)
				}
			}
		}
		sel = kept
	}
	starts[len(chain)] = len(f.Calls)
	saveScratch(a, &calls, f.Calls) // count what the records grew
	replayCalls(r, prof, progs, f.Calls, starts, fail, opts.SpeedFactor, a)
	stats.Evaluated, stats.Passed = b.NRows, len(sel)
	out := gatherBatch(a, b, sel)
	saveScratch(a, &a.sel, sel)
	return out, stats, nil
}

// loadRow puts row i's cells of the given columns into f.Vals.
func loadRow(f *expr.Frame, b *Batch, slots []int, i int32) {
	for _, s := range slots {
		f.Vals[s] = expr.Null
		if id := b.Cols[s][i]; id != dict.None {
			f.Vals[s] = expr.IDVal(id)
		}
	}
}

// probeRows is how many selected rows one memo probe answers: enough
// that a read lock covers many keys, few enough that the probe's
// scratch stays small and in cache until the rows are evaluated.
const probeRows = 1024

// memoSites readies f.Hits for the calls of p that can be answered from
// the memo ahead of evaluation — bound to a pure UDF, with columns and
// constants for arguments — and reports whether there are any.
func memoSites(a *Arena, f *expr.Frame, p *expr.Prog) bool {
	f.Hits = scratch(a, &a.hitSites, len(p.Sites))
	any := false
	for j, s := range p.Sites {
		f.Hits[j] = nil
		if c, ok := s.Callee.(*udf.Callee); ok && s.Leaf && c.Memoized() {
			hits := scratch(a, &a.hits, len(p.Sites)*probeRows)
			f.Hits[j], any = hits[j*probeRows:(j+1)*probeRows], true
		}
	}
	return any
}

// probeMemo answers the memo sites of p for the rows of sel into
// f.Hits: one key per row, one read lock per memo shard
// (udf.Callee.Probe).
func probeMemo(a *Arena, b *Batch, p *expr.Prog, f *expr.Frame, sel []int32) {
	for j, s := range p.Sites {
		if f.Hits[j] == nil {
			continue
		}
		c, keys, at := s.Callee.(*udf.Callee), a.keys[:0], scratch(a, &a.keyAt, len(sel)+1)
		for pos, i := range sel {
			loadRow(f, b, p.Slots, i)
			if args, err := s.Args(f); err == nil {
				keys = c.AppendKey(keys, args, f.Terms != nil)
			}
			at[pos+1] = int32(len(keys))
		}
		at[0] = 0
		c.Probe(keys, at, scratch(a, &a.shards, len(sel)), scratch(a, &a.order, len(sel)), f.Hits[j][:len(sel)])
		saveScratch(a, &a.keys, keys)
	}
}

// replayCalls charges the rank clock and records the profile for the
// calls the conjuncts made — calls[starts[k]:starts[k+1]] are conjunct
// k's, in row order — row by row and, within a row, conjunct by
// conjunct: the order of a row-at-a-time evaluation. A call is a
// rejection when its conjunct is the one its row failed. The profiler
// is locked once; each site's record is looked up once.
func replayCalls(r *mpp.Rank, prof *udf.Profiler, progs []*expr.Prog, calls []expr.CallCost,
	starts []int, fail []int32, speed float64, a *Arena) {
	if len(calls) == 0 {
		return
	}
	k := len(progs)
	cur, costs := starts[k+1:], scratch(a, &a.costs, len(calls))[:0]
	copy(cur, starts) // cur[j]: conjunct j's next record; cur[k+j]: its first site's record
	nsites := 0
	for j, p := range progs {
		cur[k+j], nsites = nsites, nsites+len(p.Sites)
	}
	recs := scratch(a, &a.stats, nsites)
	clear(recs)
	prof.Lock()
	for i, last := range fail {
		for j := 0; j < k && j <= int(last); j++ {
			for ; cur[j] < starts[j+1] && calls[cur[j]].Row == int32(i); cur[j]++ {
				c := calls[cur[j]]
				st := recs[cur[k+j]+int(c.Site)]
				if st == nil {
					st = prof.Stat(progs[j].Sites[c.Site].Name)
					recs[cur[k+j]+int(c.Site)] = st
				}
				cost := c.Cost * speed
				st.Execs++
				st.TotalSeconds += cost
				if int(last) == j {
					st.Rejections++
				}
				costs = append(costs, cost)
			}
		}
	}
	prof.Unlock()
	r.ChargeEach(costs)
}

// RebalanceBatchCounted redistributes the distributed batch so each
// rank's row count matches the selected policy's target, and reports
// this rank's migration for the tracer. solPerSec is this rank's
// estimated UDF throughput (ignored for count-based balancing). Tail
// rows ship zero-copy as column sub-slices; the AllToAll charges them
// to the network model.
func RebalanceBatchCounted(r *mpp.Rank, b *Batch, mode RebalanceMode, solPerSec float64, a *Arena) (*Batch, RebalanceInfo, error) {
	var info RebalanceInfo
	if mode == RebalanceNone {
		return b, info, nil
	}
	p := r.Size()
	counts, err := mpp.AllGather(r, b.Len())
	if err != nil {
		return nil, info, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	var targets []int
	if mode == RebalanceCost {
		rates, err := mpp.AllGather(r, solPerSec)
		if err != nil {
			return nil, info, err
		}
		minR, maxR := rates[0], rates[0]
		for _, x := range rates {
			if x < minR {
				minR = x
			}
			if x > maxR {
				maxR = x
			}
		}
		if minR > 0 && maxR/minR <= speedSimilarityBand {
			targets = CountTargets(total, p) // similar speeds: plain balancing
		} else {
			targets = CostTargets(total, rates)
		}
	} else {
		targets = CountTargets(total, p)
	}
	myRow := SendRow(append([]int{}, counts...), targets, r.ID())
	for _, n := range myRow {
		info.Sent += n
	}

	// Ship tail rows as zero-copy column sub-slices.
	send := make([]batchChunk, p)
	cursor := b.NRows
	for dst := 0; dst < p; dst++ {
		n := myRow[dst]
		if n == 0 {
			continue
		}
		send[dst] = sliceChunk(a, b, cursor-n, cursor)
		cursor -= n
	}
	recv, err := mpp.AllToAllSized(r, send, chunkRows)
	if err != nil {
		return nil, info, err
	}
	chunks := make([]batchChunk, 0, p+1)
	chunks = append(chunks, sliceChunk(a, b, 0, cursor))
	for src, part := range recv {
		if src == r.ID() {
			continue
		}
		info.Received += part.n
		chunks = append(chunks, part)
	}
	return concatChunks(a, b.Vars, chunks), info, nil
}
