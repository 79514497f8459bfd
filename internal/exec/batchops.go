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

// Scan is a triple-pattern scan planned once: the pattern and the
// header its batches carry, its variables in S, P, O order of first
// appearance.
type Scan struct {
	Pat  sparql.TriplePattern
	Vars []string
}

// NewScan plans a scan of pat.
func NewScan(pat sparql.TriplePattern) *Scan {
	s := &Scan{Pat: pat}
	for _, tv := range [3]sparql.TermOrVar{pat.S, pat.P, pat.O} {
		if tv.IsVar && !slices.Contains(s.Vars, tv.Var) {
			s.Vars = append(s.Vars, tv.Var)
		}
	}
	return s
}

// layout resolves the pattern's constant terms against d: col[i] is the
// output column of position i (S, P, O), -1 for a constant. ok is false
// when a constant is absent from the dictionary (nothing matches).
func (s *Scan) layout(d *dict.Dict) (tp triple.Pattern, col [3]int, ok bool) {
	ok = true
	var ids [3]dict.ID
	for i, tv := range [3]sparql.TermOrVar{s.Pat.S, s.Pat.P, s.Pat.O} {
		col[i] = slices.Index(s.Vars, tv.Var)
		if !tv.IsVar {
			id, found := d.Lookup(tv.Term)
			ids[i], ok, col[i] = id, ok && found, -1
		}
	}
	return triple.Pattern{S: ids[0], P: ids[1], O: ids[2]}, col, ok
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
	return NewScan(pat).Run(r, shard, d, a), nil
}

// Run is ScanBatch for the planned pattern.
func (s *Scan) Run(r *mpp.Rank, shard *triple.Store, d *dict.Dict, a *Arena) *Batch {
	tp, col, ok := s.layout(d)
	out := &Batch{Vars: s.Vars, Cols: a.AllocCols(len(s.Vars))}
	if !ok {
		clear(out.Cols)
		return out
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
	return out
}

// Probe joins a pattern into a stream through the shard's spo index:
// for each row it matches the pattern with its subject bound to the
// row's Key cell — one subject range per row, no exchange. The pattern's
// subject is the variable of that column. It is a join only when every
// row sits on the rank that owns its key as a subject (each triple lives
// on the shard of its subject, kg.Graph.ShardOf; see ExchangeBatch) and
// the pattern shares no other variable with the stream; the engine
// decides that from the plan alone. The output header is the hash
// join's: the stream's columns, then the pattern's new variables.
type Probe struct {
	Scan
	Key  int
	Vars []string // output header
}

// NewProbe plans a probe of pat from rows laid out as left.
func NewProbe(pat sparql.TriplePattern, left []string, key int) *Probe {
	p := &Probe{Scan: *NewScan(pat), Key: key}
	p.Vars = append(slices.Clip(left), p.Scan.Vars[1:]...) // the subject is left's
	return p
}

// Run joins the pattern into left, laid out as planned; matched counts
// the triples the probes touched.
func (p *Probe) Run(r *mpp.Rank, shard *triple.Store, d *dict.Dict, left *Batch, a *Arena) (out *Batch, matched int) {
	tp, col, ok := p.layout(d)
	nl := len(left.Vars)
	// One subject range per row: sel collects the left row of each
	// match and binds its pattern bindings; the columns are built to
	// size from them.
	keys := left.Cols[p.Key]
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
	out = &Batch{Vars: p.Vars, Cols: a.AllocCols(len(p.Vars)), NRows: n}
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

// partitionBatch routes each row to the rank its join key hashes to
// and returns the p send chunks.
func partitionBatch(a *Arena, b *Batch, keyIdx []int, p int) []batchChunk {
	dest := a.AllocIDs(b.NRows) // dict.ID is uint64
	for i := range dest {
		dest[i] = dict.ID(hashBatchRow(b.Cols, keyIdx, i) % uint64(p))
	}
	return routeBatch(a, b, dest, p)
}

// ExchangeBatch sends each row of b to the rank owner names for its
// keyCol cell, in one all-to-all, and returns the rows this rank
// receives. With kg.Graph.ShardOf for owner, every row then sits on the
// rank whose shard holds its key's triples as a subject (Probe).
func ExchangeBatch(r *mpp.Rank, b *Batch, keyCol int, owner func(dict.ID) int, a *Arena) (*Batch, error) {
	dest := a.AllocIDs(b.NRows)
	for i := range dest {
		dest[i] = dict.ID(owner(b.Cols[keyCol][i]))
	}
	recv, err := mpp.AllToAllSized(r, routeBatch(a, b, dest, r.Size()), chunkRows)
	if err != nil {
		return nil, err
	}
	return concatChunks(a, b.Vars, recv), nil
}

// routeBatch returns the p send chunks that route row i of b to rank
// dest[i] (arena-backed, counting-sort layout).
func routeBatch(a *Arena, b *Batch, dest []dict.ID, p int) []batchChunk {
	// Counting-sort counters live in one reused int scratch: counts,
	// offsets (p+1) and cursors back to back.
	s := scratch(a, &a.parts, 3*p+1)
	counts, offs, cur := s[0:p], s[p:2*p+1], s[2*p+1:3*p+1]
	clear(counts)
	for _, d := range dest {
		counts[d]++
	}
	offs[0] = 0
	for d := 0; d < p; d++ {
		offs[d+1] = offs[d] + counts[d]
	}
	sel := scratch(a, &a.sel, len(dest))
	copy(cur, offs[:p])
	for i, d := range dest {
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
		head := hb.bucket(bucketHash(b.Cols, keyIdx, i))
		hb.next[i], *head = *head, int32(i)
	}
	return hb
}

// output gathers the probe/build row pairs into the join's output
// batch. rsel entries of -1 null-extend (a left join).
func (j *Join) output(a *Arena, lb *Batch, lsel []int32, rb *Batch, rsel []int32) *Batch {
	nout := len(lsel)
	out := &Batch{Vars: j.Vars, Cols: a.AllocCols(len(j.Vars)), NRows: nout}
	for c := range lb.Vars {
		dst := a.AllocIDs(nout)
		col := lb.Cols[c]
		for k, li := range lsel {
			dst[k] = col[li]
		}
		out.Cols[c] = dst
	}
	for c, rc := range j.rAppend {
		dst := a.AllocIDs(nout)
		col := rb.Cols[rc]
		for k, ri := range rsel {
			if ri >= 0 {
				dst[k] = col[ri]
			} else {
				dst[k] = dict.None
			}
		}
		out.Cols[len(lb.Vars)+c] = dst
	}
	return out
}

// Join is a hash join planned for fixed input headers: its output
// header (left's columns, then right's that left lacks), the right-side
// columns it appends, and each side's columns of the variables the
// headers share, its key.
type Join struct {
	Vars       []string
	rAppend    []int
	lIdx, rIdx []int
	leftJoin   bool
}

// NewJoin plans a join of rows laid out as right into rows laid out as
// left; leftJoin gives it OPTIONAL semantics: left rows without a match
// survive with dict.None in the right columns.
func NewJoin(left, right []string, leftJoin bool) *Join {
	j := &Join{Vars: slices.Clip(left), leftJoin: leftJoin}
	for l, v := range left {
		if r := slices.Index(right, v); r >= 0 {
			j.lIdx, j.rIdx = append(j.lIdx, l), append(j.rIdx, r)
		}
	}
	for r, v := range right {
		if !slices.Contains(left, v) {
			j.Vars, j.rAppend = append(j.Vars, v), append(j.rAppend, r)
		}
	}
	return j
}

// cross replicates the right side and produces the cross product (a
// left join additionally null-extends when the right side is globally
// empty).
func (j *Join) cross(r *mpp.Rank, left, right *Batch, a *Arena) (*Batch, error) {
	allRight, err := mpp.AllGatherSized(r, sliceChunk(a, right, 0, right.NRows), chunkRows)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, part := range allRight {
		total += part.n
	}
	if total == 0 && j.leftJoin {
		// Null-extend every left row.
		out := &Batch{Vars: j.Vars, Cols: a.AllocCols(len(j.Vars)), NRows: left.NRows}
		copy(out.Cols, left.Cols)
		for c := range j.rAppend {
			dst := a.AllocIDs(left.NRows)
			for k := range dst {
				dst[k] = dict.None
			}
			out.Cols[len(left.Vars)+c] = dst
		}
		r.Charge(float64(left.NRows) * joinCostPerRow)
		return out, nil
	}
	nout := left.NRows * total
	out := &Batch{Vars: j.Vars, Cols: a.AllocCols(len(j.Vars)), NRows: nout}
	for c := range j.Vars {
		out.Cols[c] = a.AllocIDs(nout)
	}
	k := 0
	for lr := 0; lr < left.NRows; lr++ {
		for _, part := range allRight {
			for i := 0; i < part.n; i++ {
				for c := range left.Vars {
					out.Cols[c][k] = left.Cols[c][lr]
				}
				for c, rc := range j.rAppend {
					out.Cols[len(left.Vars)+c][k] = part.cols[rc][i]
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
	return NewJoin(left.Vars, right.Vars, false).Run(r, left, right, a)
}

// Run joins right into left, laid out as planned.
func (j *Join) Run(r *mpp.Rank, left, right *Batch, a *Arena) (*Batch, error) {
	if len(j.lIdx) == 0 {
		return j.cross(r, left, right, a)
	}
	lIdx, rIdx, p := j.lIdx, j.rIdx, r.Size()
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
		for k := *hb.bucket(bucketHash(lb.Cols, lIdx, i)); k >= 0; k = hb.next[k] {
			if batchKeyEqual(lb.Cols, lIdx, i, rb.Cols, rIdx, int(k)) {
				matched = true
				lsel = append(lsel, int32(i))
				rsel = append(rsel, int32(k))
			}
		}
		if !matched && j.leftJoin {
			lsel = append(lsel, int32(i))
			rsel = append(rsel, -1)
		}
	}
	out := j.output(a, lb, lsel, rb, rsel)
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
		head := hb.bucket(bucketHash(b.Cols, allIdx, i))
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
	calls [][]string // each conjunct's expr.CallNames, for its estimate
}

// CompileFilter compiles e's conjuncts for rows laid out as vars.
func CompileFilter(e expr.Expr, vars []string, funcs expr.FuncResolver) *Filter {
	flt := &Filter{Chain: expr.Conjuncts(e)}
	flt.progs, flt.calls = make([]*expr.Prog, len(flt.Chain)), make([][]string, len(flt.Chain))
	for k, c := range flt.Chain {
		flt.progs[k], flt.calls[k] = expr.Compile(c, vars, funcs), expr.CallNames(c)
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
	// The conjuncts' estimates, in the order they run (expr.SortConjuncts).
	chain, progs, est := flt.Chain, flt.progs, scratch(a, &a.est, len(flt.Chain))
	for k, c := range flt.Chain {
		est[k] = expr.EstimateCalls(c, flt.calls[k], prof)
	}
	if opts.Reorder {
		expr.SortConjuncts(est)
		chain, progs = scratch(a, &a.chain, len(est)), scratch(a, &a.progs, len(est))
		for k, c := range est {
			chain[k], progs[k] = c.Expr, flt.progs[slices.Index(flt.Chain, c.Expr)]
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
		for _, c := range est {
			secPerSol += c.Cost
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
