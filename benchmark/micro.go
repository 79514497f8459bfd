package main

import (
	"fmt"
	"math/rand"
	"time"

	"ids/internal/exec"
	"ids/internal/expr"
	"ids/internal/ids"
	"ids/internal/mpp"
	"ids/internal/plan"
	"ids/internal/sparql"
	"ids/internal/udf"
)

// Probes that do not depend on the op stream: single operators and
// collectives called directly, on the instance's own graph, registry
// and vector store. Each is repeated and reported as a median.
const (
	microReps     = 31
	allGatherN    = 100
	allGatherSize = 1000
	vecQueries    = 200
	memoCalls     = 2000
)

func sinceUS(start time.Time) float64 { return float64(time.Since(start)) / 1e3 }

// maxRank runs body on the bench topology and returns, per timer, the
// slowest rank's accumulated time: a result waits for the slowest rank.
func maxRank(eng *ids.Engine, timers int, body func(r *mpp.Rank, us []float64) error) ([]float64, error) {
	perRank := make([][]float64, benchTopo.Size())
	_, err := mpp.Run(benchTopo, eng.Net, eng.Seed, func(r *mpp.Rank) error {
		perRank[r.ID()] = make([]float64, timers)
		return body(r, perRank[r.ID()])
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, timers)
	for _, us := range perRank {
		for i, v := range us {
			out[i] = max(out[i], v)
		}
	}
	return out, nil
}

// planSteps parses and plans a query against the engine's graph.
func planSteps(eng *ids.Engine, query string) ([]plan.Step, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	pl, err := plan.Build(q, plan.StatsFromGraph(eng.Graph))
	if err != nil {
		return nil, err
	}
	return pl.Steps, nil
}

func patternOf(s plan.Step) (sparql.TriplePattern, bool) {
	switch n := s.(type) {
	case plan.ScanStep:
		return n.Pattern, true
	case plan.JoinStep:
		return n.Pattern, true
	}
	return sparql.TriplePattern{}, false
}

// scanJoin runs a plan's scan and join steps on one rank, adding scan
// and join time to us[0] and us[1].
func scanJoin(r *mpp.Rank, eng *ids.Engine, steps []plan.Step, a *exec.Arena, us []float64) (*exec.Batch, error) {
	shard := eng.Graph.Shard(r.ID())
	var cur *exec.Batch
	for _, s := range steps {
		pat, ok := patternOf(s)
		if !ok {
			continue
		}
		start := time.Now()
		b, err := exec.ScanBatch(r, shard, eng.Graph.Dict, pat, a)
		if err != nil {
			return nil, err
		}
		us[0] += sinceUS(start)
		if cur == nil {
			cur = b
			continue
		}
		start = time.Now()
		if cur, err = exec.HashJoinBatch(r, cur, b, a); err != nil {
			return nil, err
		}
		us[1] += sinceUS(start)
	}
	return cur, nil
}

func microProbes(sys *system, cat *catalog, seed int64, m map[string]float64) error {
	eng := sys.inst.Engine
	pool := exec.NewArenaPool()
	ranks := benchTopo.Size()

	// mpp: a world of 100 all-gathers against a world of one barrier.
	var spin, gather []float64
	payload := make([]int, allGatherSize)
	for i := 0; i < microReps; i++ {
		start := time.Now()
		if _, err := mpp.Run(benchTopo, eng.Net, eng.Seed, func(r *mpp.Rank) error { return r.Barrier() }); err != nil {
			return err
		}
		spin = append(spin, sinceUS(start))
		start = time.Now()
		if _, err := mpp.Run(benchTopo, eng.Net, eng.Seed, func(r *mpp.Rank) error {
			for j := 0; j < allGatherN; j++ {
				if _, err := mpp.AllGatherSlice(r, payload); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		gather = append(gather, sinceUS(start))
	}
	m["mpp.allgather_us"] = selfTime(median(gather), median(spin)) / allGatherN

	// exec: the bulk_export pipeline, operator by operator.
	bulk, err := planSteps(eng, newGenerator("bulk_export", seed, 0, cat).next().text)
	if err != nil {
		return err
	}
	var scan, join, gath []float64
	for i := 0; i < microReps; i++ {
		arenas := pool.Get(-1, ranks)
		us, err := maxRank(eng, 3, func(r *mpp.Rank, us []float64) error {
			b, err := scanJoin(r, eng, bulk, arenas[r.ID()], us)
			if err != nil {
				return err
			}
			start := time.Now()
			_, err = exec.GatherBatch(r, b, arenas[r.ID()])
			us[2] = sinceUS(start)
			return err
		})
		pool.Put(-1, arenas)
		if err != nil {
			return err
		}
		scan, join, gath = append(scan, us[0]), append(join, us[1]), append(gath, us[2])
	}
	m["exec.scan_us"], m["exec.hashjoin_us"], m["exec.gather_us"] = median(scan), median(join), median(gath)

	// exec + udf: the screen's similarity FILTER over every reviewed
	// sequence, memo warm after the first repetition.
	filterSteps, err := planSteps(eng, prefixes+`SELECT ?seq WHERE { ?protein up:reviewed "true" . ?protein up:sequence ?seq . FILTER(ncnpr.sw(?seq) >= 0.4) }`)
	if err != nil {
		return err
	}
	var cond expr.Expr
	for _, s := range filterSteps {
		if f, ok := s.(plan.FilterStep); ok {
			cond = f.Expr
		}
	}
	if cond == nil {
		return fmt.Errorf("filter probe: plan has no FILTER step")
	}
	resolver := expr.NewCachedResolver(expr.DictResolver{Dict: eng.Graph.Dict})
	profs := make([]*udf.Profiler, ranks)
	for i := range profs {
		profs[i] = udf.NewProfiler()
	}
	workPool := exec.NewArenaPool()
	var filter []float64
	for i := 0; i < microReps; i++ {
		in, work := pool.Get(-1, ranks), workPool.Get(-1, ranks)
		us, err := maxRank(eng, 3, func(r *mpp.Rank, us []float64) error {
			b, err := scanJoin(r, eng, filterSteps, in[r.ID()], us)
			if err != nil {
				return err
			}
			start := time.Now()
			_, _, err = exec.FilterBatch(r, b, cond, eng.Reg, profs[r.ID()], resolver,
				exec.FilterOpts{Reorder: eng.Opts.Reorder, Rebalance: eng.Opts.Rebalance}, work[r.ID()])
			us[2] = sinceUS(start)
			return err
		})
		pool.Put(-1, in)
		workPool.Put(-1, work)
		if err != nil {
			return err
		}
		if i > 0 {
			filter = append(filter, us[2])
		}
	}
	m["exec.filter_udf_us"] = median(filter)

	var memo []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < memoCalls; i++ {
			seq := cat.seq[cat.proteins[i*len(cat.proteins)/memoCalls]]
			if _, _, err := eng.Reg.CallUDF("ncnpr.sw", []expr.Value{expr.String(seq)}); err != nil {
				return err
			}
		}
		memo = append(memo, float64(time.Since(start))/memoCalls)
	}
	m["udf.call_memo_ns"] = median(memo)

	// vecstore: the index against the exact scan on seeded anchors.
	rng := rand.New(rand.NewSource(seed))
	var hnswUS, bruteUS, visited []float64
	found, want := 0, 0
	for i := 0; i < vecQueries; i++ {
		v, err := sys.vecs.Get(pick(rng, cat.vecKeys))
		if err != nil {
			return err
		}
		start := time.Now()
		exact, err := sys.vecs.Search(v, similarK)
		if err != nil {
			return err
		}
		bruteUS = append(bruteUS, sinceUS(start))
		start = time.Now()
		hits, info, err := sys.vecs.SearchHNSW(v, similarK, 0)
		if err != nil {
			return err
		}
		hnswUS = append(hnswUS, sinceUS(start))
		visited = append(visited, float64(info.Visited))
		for _, e := range exact {
			for _, h := range hits {
				if h.Key == e.Key {
					found++
				}
			}
		}
		want += len(exact)
	}
	m["vecstore.search_hnsw_us"], m["vecstore.search_brute_us"] = median(hnswUS), median(bruteUS)
	m["vecstore.visited_per_search"] = median(visited)
	m["vecstore.recall_at_10"] = float64(found) / float64(want)
	return nil
}
