// ids-bench regenerates every table and figure of the paper's
// evaluation from this reproduction, printing paper-reported and
// measured values side by side.
//
// Usage:
//
//	ids-bench [-scale paper|ci] [-exp all|table1|table2|fig4a|fig4b|fig5|rebalance|reorder|whatis|cachetiers]
//	          [-trace-out trace.json] [-concurrency N] [-load-queries Q]
//	          [-vectors N [-vec-dim D] [-vec-k K] [-vec-ef EF]]
//	ids-bench -compare baseline.json new.json
//	ids-bench -conformance [-conformance-n N] [-conformance-seed S]
//	          [-conformance-md CONFORMANCE.md] [-conformance-out report.json]
//	          [-conformance-compare CONFORMANCE.md]
//
// -conformance runs the SPARQL conformance sweep: a seeded corpus of
// generated queries executes on the engine, every answer is checked
// against the reference evaluator (internal/conformance/ref), and every
// outcome lands in a taxonomy bucket. The markdown
// report regenerates CONFORMANCE.md; -conformance-compare gates a run
// against the committed copy and exits 1 when any per-category
// success rate regresses or any P0 (crash/wrong-answer) appears.
//
// -trace-out additionally runs the NCNPR inner query with span tracing
// and writes a JSON trace summary (the EXPLAIN ANALYZE tree plus the
// engine metrics snapshot) to the given file.
//
// -concurrency N switches ids-bench into load mode: instead of the
// experiment tables it hammers one engine with -load-queries inner
// queries at concurrency 1 and at concurrency N, reporting QPS and
// p50/p99 latency for both. With -trace-out the load points are
// embedded in the JSON summary.
//
// -vectors N runs the HNSW-vs-brute access-path benchmark on a seeded
// N-vector corpus; combined with -concurrency and -bench-out the point
// is embedded in the baseline JSON so -compare gates on the index's
// speedup and recall too.
//
// -compare is the regression gate: it diffs two -bench-out baselines
// (QPS, p50/p99 latency, allocs and mallocs per query, and the vector
// point when the baseline carries one) and exits non-zero when any
// metric regressed past its threshold. When both baselines carry a
// fingerprint table, it also flags any query shape newly entering the
// top-3 by allocation share — workload drift a fixed-metric gate
// cannot see. Thresholds are configurable via
// -max-qps-drop, -max-p50-growth, -max-p99-growth, -max-alloc-growth,
// -max-mallocs-growth, -max-vec-speedup-drop (fractions; 0.3 = 30%),
// and -min-vec-recall (absolute floor). CI runs this against the
// committed BENCH_<date>.json baseline.
//
// The "paper" scale uses the paper's node counts (64/128/256 x 32
// ranks) and a 1e-3 rendition of its 66M sequence comparisons; expect
// minutes of wall time. The "ci" scale finishes in seconds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ids/internal/dtba"
	"ids/internal/experiments"
	"ids/internal/metrics"
)

func main() {
	scaleName := flag.String("scale", "ci", "experiment scale: paper or ci")
	exp := flag.String("exp", "all", "experiment to run")
	traceOut := flag.String("trace-out", "", "write a traced NCNPR query summary (JSON) to this file")
	concurrency := flag.Int("concurrency", 0, "load mode: concurrent query workers (0 = run experiments instead)")
	loadQueries := flag.Int("load-queries", 64, "load mode: total queries per concurrency level")
	benchOut := flag.String("bench-out", "", `load mode: write a machine-readable baseline JSON here ("auto" = BENCH_<date>.json)`)
	vectors := flag.Int("vectors", 0, "vector bench: corpus size for the HNSW-vs-brute access-path point (0 = skip)")
	vecDim := flag.Int("vec-dim", 32, "vector bench: dimensionality")
	vecK := flag.Int("vec-k", 10, "vector bench: top-k per query")
	vecEf := flag.Int("vec-ef", 64, "vector bench: HNSW query beam (efSearch)")
	chaosSeed := flag.Int64("chaos-seed", 0, "replay one chaos schedule by seed, with verbose narration (non-zero exit on an invariant violation)")
	compare := flag.Bool("compare", false, "regression gate: diff two baseline JSON files (args: baseline.json new.json), exit 1 on regression")
	confRun := flag.Bool("conformance", false, "run the SPARQL conformance sweep instead of the experiments")
	var cf confFlags
	flag.IntVar(&cf.n, "conformance-n", 2000, "conformance: corpus size")
	flag.Int64Var(&cf.seed, "conformance-seed", 1, "conformance: generator seed")
	flag.IntVar(&cf.ranks, "conformance-ranks", 2, "conformance: ranks in the differential world")
	flag.StringVar(&cf.outJSON, "conformance-out", "", "conformance: write the machine-readable JSON report here")
	flag.StringVar(&cf.outMD, "conformance-md", "", "conformance: write the markdown report (CONFORMANCE.md) here")
	flag.StringVar(&cf.compare, "conformance-compare", "", "conformance: baseline CONFORMANCE.md to gate against; exit 1 on any per-category success-rate regression")
	// Threshold flags default to the real defaults (not a 0 sentinel)
	// so 0 is a valid explicit value: fail on any regression at all.
	defTh := experiments.DefaultCompareThresholds()
	th := defTh
	flag.Float64Var(&th.MaxQPSDrop, "max-qps-drop", defTh.MaxQPSDrop, "compare: max tolerated fractional QPS drop")
	flag.Float64Var(&th.MaxP50Growth, "max-p50-growth", defTh.MaxP50Growth, "compare: max tolerated fractional p50 latency growth")
	flag.Float64Var(&th.MaxP99Growth, "max-p99-growth", defTh.MaxP99Growth, "compare: max tolerated fractional p99 latency growth")
	flag.Float64Var(&th.MaxAllocGrowth, "max-alloc-growth", defTh.MaxAllocGrowth, "compare: max tolerated fractional alloc-bytes-per-query growth")
	flag.Float64Var(&th.MaxMallocsGrowth, "max-mallocs-growth", defTh.MaxMallocsGrowth, "compare: max tolerated fractional mallocs-per-query growth")
	flag.Float64Var(&th.MaxVecSpeedupDrop, "max-vec-speedup-drop", defTh.MaxVecSpeedupDrop, "compare: max tolerated fractional HNSW-speedup drop")
	flag.Float64Var(&th.MinVecRecall, "min-vec-recall", defTh.MinVecRecall, "compare: absolute recall@k floor for the vector point")
	flag.Parse()

	if *chaosSeed != 0 {
		os.Exit(runChaosSeed(*chaosSeed))
	}

	if *confRun {
		os.Exit(runConformance(cf))
	}

	if *compare {
		for name, v := range map[string]float64{
			"-max-qps-drop":         th.MaxQPSDrop,
			"-max-p50-growth":       th.MaxP50Growth,
			"-max-p99-growth":       th.MaxP99Growth,
			"-max-alloc-growth":     th.MaxAllocGrowth,
			"-max-mallocs-growth":   th.MaxMallocsGrowth,
			"-max-vec-speedup-drop": th.MaxVecSpeedupDrop,
			"-min-vec-recall":       th.MinVecRecall,
		} {
			if v < 0 {
				fmt.Fprintf(os.Stderr, "compare: %s must be >= 0 (got %g)\n", name, v)
				os.Exit(2)
			}
		}
		os.Exit(runCompare(flag.Args(), th))
	}

	var sc experiments.Scale
	switch *scaleName {
	case "paper":
		sc = experiments.PaperScale()
	case "ci":
		sc = experiments.CIScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}

	// The vector point runs before the load alloc bracket so its
	// corpus churn doesn't pollute per-query allocation numbers.
	var vecPoint *experiments.VectorBenchPoint
	if *vectors > 0 {
		p, err := runVectorBench(*vectors, *vecDim, *vecK, *vecEf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vector bench: %v\n", err)
			os.Exit(1)
		}
		vecPoint = p
		if *concurrency == 0 {
			return // vector-only run: skip the experiment tables
		}
	}

	if *concurrency > 0 {
		// Alloc accounting brackets the load run so BENCH_<date>.json
		// carries per-query allocation alongside QPS and latency.
		var msBefore, msAfter runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&msBefore)
		load, fps, err := runLoad(sc, *concurrency, *loadQueries)
		if err != nil {
			fmt.Fprintf(os.Stderr, "load: %v\n", err)
			os.Exit(1)
		}
		runtime.ReadMemStats(&msAfter)
		if *benchOut != "" {
			if err := writeBenchReport(sc, *benchOut, load, fps, vecPoint, msBefore, msAfter); err != nil {
				fmt.Fprintf(os.Stderr, "bench-out: %v\n", err)
				os.Exit(1)
			}
		}
		if *traceOut != "" {
			if err := writeTraceSummary(sc, *traceOut, load); err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	run := func(name string, f func(experiments.Scale) error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Printf("\n### %s (scale=%s)\n\n", name, sc.Name)
		if err := f(sc); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("table1", runTable1)
	run("fig4a", runFig4a)
	run("fig4b", runFig4b)
	run("fig5", runFig5)
	run("table2", runTable2)
	run("rebalance", runRebalance)
	run("reorder", runReorder)
	run("whatis", runWhatIs)
	run("cachetiers", runCacheTiers)
	run("affinity", runAffinity)

	if *traceOut != "" {
		if err := writeTraceSummary(sc, *traceOut, nil); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
	}
}

// runLoad measures query throughput at concurrency 1 and at the
// requested level, printing QPS and latency quantiles for both.
func runLoad(sc experiments.Scale, concurrency, queries int) ([]experiments.LoadPoint, []experiments.FingerprintPoint, error) {
	nodes := sc.NodesList[0]
	fmt.Printf("\n### load (scale=%s, %d nodes, %d queries per level)\n\n", sc.Name, nodes, queries)
	levels := []int{1}
	if concurrency > 1 {
		levels = append(levels, concurrency)
	}
	var pts []experiments.LoadPoint
	// The last (highest-concurrency) level's fingerprint table lands
	// in the baseline: it covers the run the gate's metrics come from.
	var fps []experiments.FingerprintPoint
	for _, c := range levels {
		pt, f, err := experiments.ConcurrentLoadStats(sc, nodes, c, queries)
		if err != nil {
			return nil, nil, err
		}
		pts = append(pts, *pt)
		fps = f
	}
	t := metrics.NewTable("concurrent query load (engine-level, snapshot-isolated reads)",
		"concurrency", "queries", "errors", "wall(s)", "QPS", "p50(ms)", "p99(ms)")
	for _, p := range pts {
		t.AddRow(p.Concurrency, p.Queries, p.Errors,
			fmt.Sprintf("%.3f", p.WallSec), fmt.Sprintf("%.1f", p.QPS),
			fmt.Sprintf("%.2f", p.P50Ms), fmt.Sprintf("%.2f", p.P99Ms))
	}
	t.Render(os.Stdout)
	if len(pts) == 2 && pts[0].QPS > 0 {
		fmt.Printf("\nspeedup at concurrency %d: %.2fx QPS over serial\n",
			pts[1].Concurrency, pts[1].QPS/pts[0].QPS)
	}
	if len(fps) > 0 {
		ft := metrics.NewTable("top fingerprints (workload observatory over the last level)",
			"fingerprint", "count", "alloc-share", "p99(s)")
		for _, f := range fps {
			ft.AddRow(f.Fingerprint, f.Count,
				fmt.Sprintf("%.1f%%", 100*f.AllocShare), fmt.Sprintf("%.6f", f.LatencyP99))
		}
		fmt.Println()
		ft.Render(os.Stdout)
	}
	return pts, fps, nil
}

// writeBenchReport writes the load-mode baseline JSON; path "auto"
// names the file BENCH_<date>.json in the working directory. The
// report types live in internal/experiments so the -compare gate and
// its tests share them.
func writeBenchReport(sc experiments.Scale, path string, load []experiments.LoadPoint, fps []experiments.FingerprintPoint, vec *experiments.VectorBenchPoint, before, after runtime.MemStats) error {
	date := time.Now().Format("2006-01-02")
	if path == "auto" {
		path = fmt.Sprintf("BENCH_%s.json", date)
	}
	rep := experiments.BenchReport{
		Date:         date,
		Scale:        sc.Name,
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Load:         load,
		Vector:       vec,
		Fingerprints: fps,
		Alloc: experiments.BenchAlloc{
			AllocBytesTotal: after.TotalAlloc - before.TotalAlloc,
			MallocsTotal:    after.Mallocs - before.Mallocs,
			GCCycles:        after.NumGC - before.NumGC,
		},
	}
	for _, p := range load {
		rep.Alloc.TotalQueries += p.Queries
	}
	if n := rep.Alloc.TotalQueries; n > 0 {
		rep.Alloc.AllocBytesPerQuery = float64(rep.Alloc.AllocBytesTotal) / float64(n)
		rep.Alloc.MallocsPerQuery = float64(rep.Alloc.MallocsTotal) / float64(n)
	}
	if err := experiments.WriteBenchReport(path, &rep); err != nil {
		return err
	}
	fmt.Printf("\nbench baseline: %s (%.0f B/query, %.0f mallocs/query over %d queries)\n",
		path, rep.Alloc.AllocBytesPerQuery, rep.Alloc.MallocsPerQuery, rep.Alloc.TotalQueries)
	return nil
}

// runVectorBench measures the HNSW access path against the exact scan
// on a seeded corpus and prints the point that lands in the baseline.
func runVectorBench(vectors, dim, k, ef int) (*experiments.VectorBenchPoint, error) {
	opts := experiments.DefaultVectorBenchOptions()
	opts.Vectors, opts.Dim, opts.K, opts.EfSearch = vectors, dim, k, ef
	fmt.Printf("\n### vector access path (%d vectors, dim %d, k %d, M %d, efC %d, efS %d)\n\n",
		opts.Vectors, opts.Dim, opts.K, opts.M, opts.EfConstruction, opts.EfSearch)
	pt, err := experiments.VectorBench(opts)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("HNSW vs brute-force top-k (seeded corpus and queries)",
		"path", "p50(ms)", "recall@k", "visited(mean)")
	t.AddRow("brute", fmt.Sprintf("%.4f", pt.BruteP50Ms), "1.0000", pt.Vectors)
	t.AddRow("hnsw", fmt.Sprintf("%.4f", pt.HNSWP50Ms), fmt.Sprintf("%.4f", pt.Recall),
		fmt.Sprintf("%.0f", pt.VisitedMean))
	t.Render(os.Stdout)
	fmt.Printf("\nbuild %.2fs; speedup %.1fx (brute p50 / hnsw p50)\n", pt.BuildSec, pt.Speedup)
	return pt, nil
}

// runCompare is the bench regression gate: it diffs the new baseline
// against the committed one and returns 1 when any metric breached its
// threshold (the exit status CI keys off).
func runCompare(args []string, th experiments.CompareThresholds) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ids-bench -compare [threshold flags] baseline.json new.json")
		return 2
	}
	base, err := experiments.ReadBenchReport(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	nw, err := experiments.ReadBenchReport(args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		return 2
	}
	fmt.Printf("bench compare: baseline %s (%s, go %s, GOMAXPROCS %d) vs new %s (%s, go %s, GOMAXPROCS %d)\n",
		base.Date, base.Scale, base.GoVersion, base.GOMAXPROCS,
		nw.Date, nw.Scale, nw.GoVersion, nw.GOMAXPROCS)
	if base.Scale != nw.Scale {
		fmt.Printf("note: scales differ (%q vs %q) — comparison is apples to oranges\n", base.Scale, nw.Scale)
	}
	regs := experiments.CompareBench(base, nw, th)
	if len(regs) == 0 {
		fmt.Println("no regression: all metrics within thresholds")
		return 0
	}
	fmt.Printf("REGRESSION: %d metric(s) breached thresholds:\n", len(regs))
	for _, r := range regs {
		fmt.Printf("  %s\n", r)
	}
	return 1
}

// writeTraceSummary runs the NCNPR inner query traced and writes the
// span trace plus metrics snapshot (and any load points) as JSON.
func writeTraceSummary(sc experiments.Scale, path string, load []experiments.LoadPoint) error {
	nodes := sc.NodesList[0]
	sum, err := experiments.TraceSummary(sc, nodes)
	if err != nil {
		return err
	}
	sum.Load = load
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\ntrace summary (%d nodes): %s — makespan %.3fs, %d ops, %d rows\n",
		sum.Nodes, path, sum.Trace.Makespan, len(sum.Trace.Ops), sum.Trace.Rows)
	sum.Trace.Render(os.Stdout, false)
	return nil
}

func runAffinity(sc experiments.Scale) error {
	nodes := 4
	rows, err := experiments.AffinityAblation(sc, nodes)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		"§8 ablation: cache-affinity scheduling of docking tasks (warm cache)",
		"affinity", "warm-query(s)", "remote-dram-hits")
	for _, r := range rows {
		t.AddRow(r.Affinity, r.WarmSec, r.RemoteHits)
	}
	t.Render(os.Stdout)
	return nil
}

func runTable1(sc experiments.Scale) error {
	rows, err := experiments.Table1(sc, 8)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		fmt.Sprintf("Table 1: dataset characteristics (generated at scale %.0e)", sc.Table1Scale),
		"dataset", "paper triples", "generated", "ingest", "triples/s")
	for _, r := range rows {
		t.AddRow(r.Name, r.PaperTriples, r.Generated, r.IngestWall.Round(1e6), int(r.TriplesPerSec))
	}
	t.Render(os.Stdout)
	return nil
}

// fig4Cache shares one sweep across the three figure renderers.
var fig4Points []experiments.ScalingPoint

func fig4(sc experiments.Scale) ([]experiments.ScalingPoint, error) {
	if fig4Points != nil {
		return fig4Points, nil
	}
	pts, err := experiments.Fig4(sc)
	if err != nil {
		return nil, err
	}
	fig4Points = pts
	return pts, nil
}

func runFig4a(sc experiments.Scale) error {
	pts, err := fig4(sc)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		"Fig 4(a): NCNPR query scaling (paper: 86/72/62 s total, 43/29/19 s excl. docking at 64/128/256 nodes)",
		"nodes", "ranks", "total(s)", "excl-dock(s)", "candidates", "wall")
	for _, p := range pts {
		t.AddRow(p.Nodes, p.Ranks, p.Total, p.NonDock, p.Docked, p.Wall.Round(1e6))
	}
	t.Render(os.Stdout)
	if sc.CalibrateToPaper {
		fmt.Printf("\nscale note: %d synthetic comparisons stand for the paper's %d; "+
			"the per-call SW cost is calibrated so filter times are at paper scale\n",
			sc.Comparisons(), experiments.PaperSWComparisons)
	} else {
		fmt.Printf("\nscale note: %d of the paper's %d SW comparisons (x%.0f extrapolation on scan-bound phases)\n",
			sc.Comparisons(), experiments.PaperSWComparisons, sc.ExtrapolationFactor())
	}
	return nil
}

func runFig4b(sc experiments.Scale) error {
	pts, err := fig4(sc)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		"Fig 4(b): phase breakdown (paper: docking dominates and is flat; scan/join/merge plateau; FILTER scales)",
		"nodes", "scan(ms)", "join(ms)", "merge(ms)", "filter(s)", "dock(s)")
	for _, p := range pts {
		t.AddRow(p.Nodes, p.Scan*1000, p.Join*1000, p.Merge*1000, p.Filter, p.Dock)
	}
	t.Render(os.Stdout)
	fmt.Println("\nScan/join/merge at this graph scale sit in the collective-latency floor;")
	fmt.Println("the plateau mechanism in isolation (fixed graph, growing ranks):")

	nodesList := []int{2, 8, 32, 128}
	if sc.Name == "ci" {
		nodesList = []int{2, 4, 8, 16}
	}
	pl, err := experiments.ScanPlateau(sc, nodesList)
	if err != nil {
		return err
	}
	pt := metrics.NewTable("scan-plateau microbenchmark",
		"nodes", "ranks", "scan(ms)", "merge(ms)", "total(ms)", "rows")
	for _, p := range pl {
		pt.AddRow(p.Nodes, p.Ranks, p.ScanSec*1000, p.MergeSec*1000, p.TotalSec*1000, p.RowsTotal)
	}
	pt.Render(os.Stdout)
	return nil
}

func runFig5(sc experiments.Scale) error {
	pts, err := fig4(sc)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		"Fig 5: FILTER times (paper: 27 / 18.5 / 7.7 s at 64/128/256 nodes)",
		"nodes", "filter(s)", "filter at paper scale(s)")
	for _, p := range pts {
		t.AddRow(p.Nodes, p.Filter, p.Filter*sc.FilterExtrapolation())
	}
	t.Render(os.Stdout)
	if sc.CalibrateToPaper {
		fmt.Println("(SW cost paper-calibrated: measured filter times are already at paper scale)")
	}

	// DTBA variance: the paper notes most predictions take ~1 s with a
	// heavy tail, which is why per-UDF profiling matters.
	var s metrics.Summary
	for i := 0; i < 2000; i++ {
		s.Add(dtba.Cost("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ", fmt.Sprintf("CC%d", i)))
	}
	fmt.Printf("\nDTBA per-call cost distribution: %s\n", s.String())
	s.Histogram(10, os.Stdout)
	return nil
}

func runTable2(sc experiments.Scale) error {
	rows, err := experiments.Table2(sc)
	if err != nil {
		return err
	}
	paper := experiments.PaperTable2()
	t := metrics.NewTable(
		"Table 2: query times across SW selectivity (paper 5-15x cache win)",
		"selectivity", "compounds", "paper-compounds",
		"no-cache(s)", "paper-no-cache(s)", "cached(s)", "paper-cached(s)", "speedup")
	for i, r := range rows {
		t.AddRow(r.Selectivity, r.Compounds, paper[i].Compounds,
			r.NoCacheSec, paper[i].NoCacheSec, r.CachedSec, paper[i].CachedSec,
			fmt.Sprintf("%.1fx", r.Speedup))
	}
	t.Render(os.Stdout)
	return nil
}

func runRebalance(sc experiments.Scale) error {
	costAware, countBased, targets := experiments.RebalanceExample()
	fmt.Println("Worked example (paper §2.4.2): 1.4M solutions, 900 ranks (500@100, 300@200, 100@300 ops/s)")
	fmt.Printf("  per-rank chunks: slow=%d medium=%d fast=%d (1:2:3, the paper's chunk x ratio shape)\n",
		targets[0], targets[500], targets[800])
	fmt.Printf("  estimated makespan: cost-aware=%.2fs count-based=%.2fs (%.2fx better)\n",
		costAware, countBased, countBased/costAware)

	nodes := 6
	if sc.Name == "ci" {
		nodes = 3
	}
	rows, err := experiments.RebalanceAblation(sc, nodes)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		fmt.Sprintf("Live ablation: heterogeneous cluster (%d nodes, 1/3 at 3x UDF cost)", nodes),
		"policy", "filter(s)", "total(s)")
	for _, r := range rows {
		t.AddRow(r.Policy, r.FilterSec, r.TotalSec)
	}
	t.Render(os.Stdout)
	return nil
}

func runReorder(sc experiments.Scale) error {
	rows, err := experiments.ReorderAblation(sc, 2)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		"§2.4.3 ablation: FILTER conjunct reordering (query written worst-first)",
		"reorder", "filter(s)")
	for _, r := range rows {
		t.AddRow(r.Reorder, r.FilterSec)
	}
	t.Render(os.Stdout)
	return nil
}

func runWhatIs(sc experiments.Scale) error {
	sec, err := experiments.WhatIs(sc, 2)
	if err != nil {
		return err
	}
	fmt.Printf("what-is point lookup: %.3f ms simulated (paper: milliseconds)\n", sec*1000)
	return nil
}

func runCacheTiers(sc experiments.Scale) error {
	rows, err := experiments.CacheTiers(64 << 10)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		"Cache tier access costs for one 64 KiB docking artifact",
		"path", "seconds")
	for _, r := range rows {
		t.AddRow(r.Path, fmt.Sprintf("%.6f", r.Seconds))
	}
	t.Render(os.Stdout)
	return nil
}
