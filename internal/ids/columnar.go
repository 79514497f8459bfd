package ids

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/plan"
	"ids/internal/sparql"
	"ids/internal/udf"
)

// Plan execution. Engine.physical lowers the planner's steps once per
// query, on the coordinating goroutine, to a flat operator list that
// fixes what every rank does alike: each operator's access method (a
// subject join's among three, planBuilder.pattern), the column layouts
// it reads and writes and its join keys, SIMILAR placement, every FILTER
// compiled for its layout (one registry table binds all UDF calls of the
// query), the trace labels. Ranks share the list read-only and run one
// loop over it (rankExec.run). A rank decides only what rests on its own
// data: a FILTER's conjunct order, from its profile, and re-balancing.
// Batches of dict IDs flow through arena buffers; the gather root
// materializes rows once and runs the post-gather operators and
// Engine.finalize.
//
// Accounting discipline: arena scratch is recycled across operators and
// queries, so an operator may allocate nothing. A traced operator
// therefore reports the arena's *fresh-heap delta* (new slabs, grown
// scratch) across its run — real allocations only — plus, at gather,
// the materialized table. That keeps DESIGN.md §6's two-ledger invariant:
// op-accounted bytes stay a strictly positive under-estimate of the
// physical runtime/metrics delta.

// slotKey carries the server's admission-slot index through the
// request context into the engine, keying arena reuse.
type slotKey struct{}

// withSlot returns ctx tagged with the admission slot index.
func withSlot(ctx context.Context, slot int) context.Context {
	return context.WithValue(ctx, slotKey{}, slot)
}

// slotFrom extracts the admission slot, or -1 when the query did not
// pass through server admission (CLI, tests, embedded callers).
func slotFrom(ctx context.Context) int {
	if v, ok := ctx.Value(slotKey{}).(int); ok {
		return v
	}
	return -1
}

// physOp is one operator of a query's physical plan, built on the
// coordinating goroutine and only read by the ranks. run is its access
// method with everything static bound in (pattern, headers and join
// keys, placement, compiled programs); it gets the batches the operator
// reads, popped off the stack once their headers matched ins, pushes
// what it leaves, and notes its rows on the open sample. Read in before
// pushing: it aliases the stack. label and note are rendered for a
// traced query only.
type physOp struct {
	ins         [][]string // layouts of the batches it reads, bottom to top
	run         func(x *rankExec, in []*exec.Batch) error
	depth       int
	op, phase   string
	label, note string
}

// physPlan is a query's physical plan: the operators every rank runs,
// ending in the gather, and those the gather root runs after it.
type physPlan struct {
	pl        *plan.Plan
	ops, post []physOp
}

// planBuilder lowers plan steps to operators at the current UNION and
// OPTIONAL nesting depth.
type planBuilder struct {
	e      *Engine
	funcs  expr.FuncResolver
	traced bool
	depth  int
	ops    []physOp
}

// stream is the builder's view of a running stream: whether an access
// path has seeded it, its layout, the variable whose every row sits on
// the rank that owns its value as a subject ("" for none), and the
// plan's estimate of its rows (-1: unknown).
type stream struct {
	seeded bool
	vars   []string
	owned  string
	est    int
}

// probeFactor is how many times smaller than a pattern's estimate a
// stream's must be for an exchange-then-probe join (planBuilder.pattern).
const probeFactor = 8

// physical lowers pl to its physical plan. All UDF calls bind through
// one registry table (udf.Registry.Binder), so every rank runs one
// version of each function, whatever is reloaded meanwhile.
func (e *Engine) physical(pl *plan.Plan, traced bool) (*physPlan, error) {
	pb := &planBuilder{e: e, funcs: e.Reg.Binder(), traced: traced, ops: make([]physOp, 0, 2*len(pl.Steps)+1)}
	s, err := pb.steps(pl.Steps)
	if err != nil {
		return nil, err
	}
	vars := s.vars
	if pl.Distinct && len(pl.Aggregates) == 0 {
		// Shrinks what is shipped (finalize applies DISTINCT to the
		// projected rows); an aggregate's input is a bag.
		pb.add(physOp{ins: [][]string{vars}, op: "distinct", phase: "merge", run: func(x *rankExec, in []*exec.Batch) error {
			out, err := exec.DistinctGlobalBatch(x.r, in[0], x.a)
			return x.push(out, in[0].Len(), err)
		}})
	}
	pp := &physPlan{pl: pl}
	pb.add(physOp{ins: [][]string{vars}, op: "gather", phase: "merge", run: pp.gather})
	pp.ops = pb.ops
	if len(pl.Binds) > 0 {
		in, progs := vars, make([]*expr.Prog, len(pl.Binds))
		for i, b := range pl.Binds {
			progs[i] = expr.Compile(b.Expr, vars, pb.funcs)
			vars = append(slices.Clip(vars), b.Var)
		}
		op := physOp{op: "bind", run: post(in, true, func(x *rankExec) (*exec.Table, error) {
			return exec.ApplyBinds(x.r, x.tab, pl.Binds, progs, x.e.res()), nil
		})}
		if traced {
			op.label = strconv.Itoa(len(pl.Binds)) + " columns"
		}
		pp.post = append(pp.post, op)
	}
	if len(pl.PostFilters) > 0 {
		progs := make([]*expr.Prog, len(pl.PostFilters))
		for i, f := range pl.PostFilters {
			progs[i] = expr.Compile(f, vars, pb.funcs)
		}
		pp.post = append(pp.post, physOp{op: "filter", note: "post-bind", run: post(vars, false, func(x *rankExec) (*exec.Table, error) {
			return exec.ApplyPostFilters(x.r, x.tab, progs, x.e.res()), nil
		})})
	}
	if len(pl.Aggregates) > 0 {
		pp.post = append(pp.post, physOp{op: "aggregate", run: post(vars, true, func(x *rankExec) (*exec.Table, error) {
			return exec.Aggregate(x.tab, pl.GroupBy, pl.Aggregates, x.e.res())
		})})
	}
	return pp, nil
}

// gather ends every rank's list: the root materializes the gathered
// rows, closes the gather's sample and runs the post-gather operators
// and finalize; every rank keeps the table that returns.
func (pp *physPlan) gather(x *rankExec, in []*exec.Batch) error {
	x.rowsIn = in[0].Len()
	tab, err := exec.GatherBatchTo(x.r, in[0], x.a, func(all *exec.Batch) (*exec.Table, error) {
		x.tab = all.Materialize()
		x.rowsOut = x.tab.Len()
		x.heapB, x.heapM = all.MaterializeFootprint()
		x.close()
		for i := range pp.post {
			if err := x.run(&pp.post[i]); err != nil {
				return nil, err
			}
		}
		return x.e.finalize(pp.pl, x.tab, x.a)
	})
	x.tab = tab
	return err
}

// post makes a post-gather operator of f, which turns the root's table,
// laid out as vars, into the next; footprint reports what that holds.
func post(vars []string, footprint bool, f func(x *rankExec) (*exec.Table, error)) func(*rankExec, []*exec.Batch) error {
	return func(x *rankExec, _ []*exec.Batch) error {
		x.rowsIn = x.tab.Len()
		err := checkLayout("post-gather", x.tab.Vars, vars)
		if err == nil {
			x.tab, err = f(x)
		}
		if err != nil {
			return err
		}
		if x.rowsOut = x.tab.Len(); footprint {
			x.heapB, x.heapM = x.tab.Footprint()
		}
		return nil
	}
}

// add appends an operator at the current depth.
func (pb *planBuilder) add(op physOp) {
	op.depth = pb.depth
	pb.ops = append(pb.ops, op)
}

// steps lowers a step list whose stream starts empty. UNION branches
// and OPTIONAL bodies lower the same way, one level deeper, leaving
// their stream above the enclosing one. The stream's estimate is its
// last access step's (ScanStep.Est, else OutEst), carried through
// FILTERs; a UNION or OPTIONAL leaves it unknown.
func (pb *planBuilder) steps(steps []plan.Step) (stream, error) {
	s := stream{est: -1}
	for _, step := range steps {
		placed := s.owned
		s.owned = ""
		switch st := step.(type) {
		case plan.ScanStep:
			s = pb.pattern(s, st.Pattern, placed, st.Est)
			s.est = st.Est
		case plan.JoinStep:
			s = pb.pattern(s, st.Pattern, placed, st.Est)
			s.est = st.OutEst
		case plan.FilterStep:
			flt := exec.CompileFilter(st.Expr, s.vars, pb.funcs)
			op := physOp{ins: [][]string{s.vars}, op: "filter", phase: "filter",
				run: func(x *rankExec, in []*exec.Batch) error { return x.filter(flt, in[0]) }}
			if pb.traced && !pb.e.Opts.Reorder {
				op.note = "order: " + conjunctOrder(flt.Chain)
			}
			pb.add(op)
		case plan.UnionStep:
			ins := make([][]string, len(st.Branches))
			pb.depth++
			for i, branch := range st.Branches {
				bs, err := pb.steps(branch)
				if err != nil {
					return s, err
				}
				ins[i] = bs.vars
			}
			pb.depth--
			vars := st.Vars
			op := physOp{ins: ins, op: "union", run: func(x *rankExec, in []*exec.Batch) error {
				for i, b := range in {
					var err error
					if in[i], err = b.Project(vars); err != nil {
						return err
					}
				}
				return x.push(exec.ConcatBatches(x.a, vars, in), 0, nil)
			}}
			if pb.traced {
				op.label = strconv.Itoa(len(ins)) + " branches"
			}
			pb.add(op)
			s = pb.joinIn(s, vars, false)
		case plan.SimilarStep:
			v, semi, key := st.Sim.Var, st.Semi, slices.Index(s.vars, st.Sim.Var)
			if semi && key < 0 {
				return s, fmt.Errorf("ids: SIMILAR semi-join variable ?%s not in stream", v)
			}
			// The search is deterministic: it runs once, here, and each
			// rank charges what it visited.
			ids, info, err := pb.e.knnHits(st.Sim)
			if err != nil {
				return s, err
			}
			op := physOp{op: "knn", phase: "scan"}
			if pb.traced {
				op.label, op.note = st.Sim.String(), knnNote(info, semi)
			}
			if !semi {
				op.run = func(x *rankExec, _ []*exec.Batch) error {
					exec.ChargeKNN(x.r, info.Visited)
					return x.push(exec.KNNBatch(x.a, v, x.e.knnOwned(ids, x.r.ID())), 0, nil)
				}
				pb.add(op)
				if s.seeded {
					s = pb.joinIn(s, []string{v}, false)
				} else { // its hits are placed by kg.Graph.ShardOf (knnOwned)
					s = stream{seeded: true, vars: []string{v}, owned: v}
				}
				s.est = st.OutEst
				break
			}
			keep := knnKeepSet(ids)
			op.ins, op.phase = [][]string{s.vars}, "filter"
			op.run = func(x *rankExec, in []*exec.Batch) error {
				exec.ChargeKNN(x.r, info.Visited)
				return x.push(exec.SemiFilterBatch(x.a, in[0], key, keep), in[0].Len(), nil)
			}
			pb.add(op)
			s.est = st.OutEst
		case plan.ValuesStep:
			vars, rows := st.Values.Vars, exec.ResolveValues(st.Values, pb.e.Graph.Dict)
			op := physOp{op: "values", phase: "scan", run: func(x *rankExec, _ []*exec.Batch) error {
				return x.push(exec.ValuesBatch(x.r, x.a, vars, rows), 0, nil)
			}}
			if pb.traced {
				op.label = st.Values.String()
			}
			pb.add(op)
			s = pb.joinIn(s, vars, false)
			s.est = st.OutEst
		case plan.OptionalStep:
			pb.depth++
			body, err := pb.steps(st.Body)
			pb.depth--
			if err != nil {
				return s, err
			}
			s = pb.joinIn(s, body.vars, true) // a leading OPTIONAL is just its body
		}
	}
	return s, nil
}

// pattern lowers a triple pattern whose planned rows number est, by one
// of three access methods. The choice reads only the plan, as it must:
// two of them enter collectives.
//   - Probe: the stream is placed on the pattern's subject and shares no
//     other variable with it. Each rank joins its rows through its own
//     spo index (exec.Probe), and the placement holds.
//   - Exchange-then-probe: the same, but the stream is not placed, and
//     it is known to be small (estimate × probeFactor < est). One
//     all-to-all sends each row to the owner of its subject
//     (kg.Graph.ShardOf), then each rank probes; the stream is placed.
//   - Else the pattern is scanned and hash-joined in, both sides
//     repartitioned.
func (pb *planBuilder) pattern(s stream, pat sparql.TriplePattern, placed string, est int) stream {
	scan := exec.NewScan(pat)
	op := physOp{op: "scan", phase: "scan"}
	if pb.traced {
		op.label = pat.String()
	}
	v, exchange := pat.S.Var, placed != pat.S.Var
	if !s.seeded || !pat.S.IsVar || !slices.Contains(s.vars, v) ||
		slices.ContainsFunc(scan.Vars[1:], func(w string) bool { return slices.Contains(s.vars, w) }) ||
		exchange && (s.est < 0 || s.est*probeFactor >= est) {
		op.run = func(x *rankExec, _ []*exec.Batch) error {
			return x.push(scan.Run(x.r, x.e.Graph.Shard(x.r.ID()), x.e.Graph.Dict, x.a), 0, nil)
		}
		pb.add(op)
		return pb.joinIn(s, scan.Vars, false)
	}
	probe := exec.NewProbe(pat, s.vars, slices.Index(s.vars, v))
	if op.ins = [][]string{s.vars}; pb.traced {
		op.note = "probe ?" + v
		if exchange {
			op.note = "exchange, " + op.note
		}
	}
	op.run = func(x *rankExec, in []*exec.Batch) (err error) {
		b := in[0]
		if exchange {
			if b, err = exec.ExchangeBatch(x.r, b, probe.Key, x.e.Graph.ShardOf, x.a); err != nil {
				return err
			}
		}
		out, matched := probe.Run(x.r, x.e.Graph.Shard(x.r.ID()), x.e.Graph.Dict, b, x.a)
		x.push(out, b.Len(), nil)
		x.rowsOut = matched
		return nil
	}
	pb.add(op)
	return stream{seeded: true, vars: probe.Vars, owned: v, est: -1}
}

// joinIn seeds the stream with an operator's output laid out as vars,
// or joins that output into it (optional: with OPTIONAL semantics).
func (pb *planBuilder) joinIn(s stream, vars []string, optional bool) stream {
	if !s.seeded {
		return stream{seeded: true, vars: vars, est: -1}
	}
	join := exec.NewJoin(s.vars, vars, optional)
	op := physOp{ins: [][]string{s.vars, vars}, op: "join", phase: "join"}
	if optional {
		op.op = "optional"
	}
	op.run = func(x *rankExec, in []*exec.Batch) error {
		out, err := join.Run(x.r, in[0], in[1], x.a)
		return x.push(out, in[0].Len()+in[1].Len(), err)
	}
	pb.add(op)
	return stream{seeded: true, vars: join.Vars, est: -1}
}

// rankExec runs a physical plan on one rank: a stack of batches (a UNION
// branch or an OPTIONAL body leaves its stream above the enclosing one),
// the rank's profile and arena, and the open trace sample.
type rankExec struct {
	e     *Engine
	r     *mpp.Rank
	rec   *obs.RankRecorder
	prof  *udf.Profiler
	a     *exec.Arena
	stack []*exec.Batch
	buf   [4]*exec.Batch // the stack's first cells
	tab   *exec.Table    // from the gather on: the answer
	// The open sample (op nil: none): what its operator noted — rows,
	// a note, heap it materialized outside the arena — and, at its
	// start, the clocks and the arena's fresh-heap counters.
	op              *physOp
	rowsIn, rowsOut int
	note            string
	heapB, heapM    int64
	vt0             float64
	w0              time.Time
	fb0, fm0        int64
}

// rankExecs recycles the ranks' executors across queries.
var rankExecs = sync.Pool{New: func() any { return new(rankExec) }}

// runPlanRec executes the physical plan on one rank and returns the
// final (gathered, ordered, projected) table — one table, built by the
// gather root and handed to every rank, so callers must treat it as
// read-only. rec is the rank's optional trace recorder, profs the
// query's overlay profilers and arenas the world's.
func (e *Engine) runPlanRec(r *mpp.Rank, pp *physPlan, rec *obs.RankRecorder, profs []*udf.Profiler, arenas []*exec.Arena) (*exec.Table, error) {
	x := rankExecs.Get().(*rankExec)
	defer func() { *x = rankExec{}; rankExecs.Put(x) }()
	*x = rankExec{e: e, r: r, rec: rec, prof: profs[r.ID()], a: arenas[r.ID()]}
	x.stack = x.buf[:0]
	for i := range pp.ops {
		if err := x.run(&pp.ops[i]); err != nil {
			return nil, err
		}
	}
	return x.tab, nil
}

// run executes one operator: it checks the headers of the batches the
// operator reads against the plan's layouts, so a drift fails the query
// rather than read a wrong column, and, for a traced query, opens the
// operator's sample and closes it after.
func (x *rankExec) run(op *physOp) error {
	n := len(x.stack) - len(op.ins)
	in := x.stack[n:]
	for i, vars := range op.ins {
		if err := checkLayout(op.op, in[i].Vars, vars); err != nil {
			return err
		}
	}
	x.stack = x.stack[:n]
	if op.phase != "" {
		x.r.SetPhase(op.phase)
	}
	if x.rec != nil {
		x.op, x.rowsIn, x.rowsOut, x.note, x.heapB, x.heapM = op, 0, 0, "", 0, 0
		x.vt0, x.w0 = x.r.Now(), time.Now()
		x.fb0, x.fm0 = x.a.Fresh()
	}
	if err := op.run(x, in); err != nil {
		return err
	}
	x.close()
	return nil
}

// push leaves out on the stack and notes the operator's rows.
func (x *rankExec) push(out *exec.Batch, rowsIn int, err error) error {
	if err != nil {
		return err
	}
	x.stack = append(x.stack, out)
	x.rowsIn, x.rowsOut = rowsIn, out.Len()
	return nil
}

// close records the open sample: its operator's name, depth, label and
// static note, the virtual and wall seconds since run opened it, and the
// heap the arena grew by on top of what the operator materialized
// outside it. An operator closes its sample early to leave out what
// follows (a FILTER's barrier, what the gather root runs after the
// gather); a closed sample records nothing more.
func (x *rankExec) close() {
	op := x.op
	if op == nil {
		return
	}
	x.op = nil
	fb, fm := x.a.Fresh()
	s := obs.OpSample{Depth: op.depth, Op: op.op, Label: op.label, Note: x.note,
		RowsIn: x.rowsIn, RowsOut: x.rowsOut,
		AllocBytes: x.heapB + fb - x.fb0, Mallocs: x.heapM + fm - x.fm0,
		VT: x.r.Now() - x.vt0, Wall: time.Since(x.w0).Seconds()}
	if s.Note == "" {
		s.Note = op.note
	}
	x.rec.Record(s)
}

// checkLayout reports a batch or table whose columns are not the ones
// the named operator was planned for.
func checkLayout(op string, got, want []string) error {
	if !slices.Equal(got, want) {
		return fmt.Errorf("ids: %s operator planned for columns %v, got %v", op, want, got)
	}
	return nil
}

// filter runs a FILTER: the rank evaluates the shared compiled
// conjuncts in its own order, then all ranks synchronize (paper: ranks
// sync solutions only once evaluation completes). Re-balancing has a
// sample of its own, ahead of the filter's, which closes before the
// barrier.
func (x *rankExec) filter(flt *exec.Filter, b *exec.Batch) error {
	e, r := x.e, x.r
	opts := exec.FilterOpts{Reorder: e.Opts.Reorder, Rebalance: e.Opts.Rebalance,
		// The request context rides along so the obs handler stamps qid
		// and traceparent onto operator lines.
		Ctx: r.Context()}
	if e.Opts.SpeedFactor != nil {
		opts.SpeedFactor = e.Opts.SpeedFactor(r.ID())
	}
	if r.ID() == 0 {
		// Rank 0 narrates the FILTER decisions (conjunct order,
		// re-balance traffic) at Debug; one rank is enough.
		opts.Logger = e.Logger()
	}
	out, st, err := flt.Run(r, b, x.prof, e.res(), opts, x.a)
	if err != nil {
		return err
	}
	x.stack = append(x.stack, out)
	x.rowsIn, x.rowsOut = st.Evaluated, st.Passed
	if st.Rebalance.Sent > 0 {
		e.met.rebalanceMoved.Add(float64(st.Rebalance.Sent))
	}
	if x.rec != nil {
		if opts.Rebalance != exec.RebalanceNone {
			x.rec.Record(obs.OpSample{Depth: x.op.depth, Op: "rebalance",
				RowsIn: st.RowsBefore, RowsOut: st.Evaluated, VT: st.RebalanceSeconds,
				Note: fmt.Sprintf("sent=%d recv=%d", st.Rebalance.Sent, st.Rebalance.Received)})
		}
		x.vt0 += st.RebalanceSeconds
		if opts.Reorder {
			x.note = "order: " + conjunctOrder(st.Chain)
		}
		x.close()
	}
	return r.Barrier()
}

// res returns the engine's cached ID resolver.
func (e *Engine) res() expr.Resolver { return e.cres }

// conjunctOrder renders the order a FILTER's conjuncts run in, for its
// trace note.
func conjunctOrder(chain []expr.Expr) string {
	parts := make([]string, len(chain))
	for i, c := range chain {
		parts[i] = c.String()
	}
	return strings.Join(parts, " AND ")
}
