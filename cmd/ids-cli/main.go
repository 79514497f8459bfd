// ids-cli is the Datastore Client: it submits queries, imports and
// reloads UDF modules, and inspects a running IDS endpoint.
//
// Usage:
//
//	ids-cli -e http://host:port query  [-explain] 'SELECT ...'
//	ids-cli -e http://host:port vector upsert -store fp -key <iri> 0.1 0.2 0.3
//	ids-cli -e http://host:port vector search -store fp -key <iri> -k 10
//	ids-cli -e http://host:port module -name mymod -file code.ids [-reload]
//	ids-cli -e http://host:port stats
//	ids-cli -e http://host:port profile
//	ids-cli -e http://host:port metrics
//	ids-cli -e http://host:port trace [qid] [-artifact heap|goroutine -o file]
//	ids-cli -e http://host:port insights [-top N] [-q]
//
// stats prints the graph size (ids_graph_triples, ids_graph_terms) and
// the query and update counters from /metrics, and the UDFs the
// profile has recorded from /profile.
//
// query -explain runs the query with span tracing and renders the
// EXPLAIN ANALYZE tree (per-operator rows, virtual seconds, per-rank
// skew, accounted allocations) after the result table.
//
// trace reads the server's retained queries (GET /traces): without a
// qid it lists the stored traces, with the flight recorder's capture
// reason and profile sizes for those that breached the latency or
// allocation budget; with a qid it renders that query's trace, and
// -artifact downloads its kept heap or goroutine profile.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"ids/internal/ids"
	"ids/internal/metrics"
	"ids/internal/obs"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ids-cli -e <endpoint> <query|update|vector|module|snapshot|checkpoint|stats|profile|metrics|trace|insights> [args]")
	os.Exit(2)
}

func runUpdate(c *ids.Client, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("update takes exactly one argument")
	}
	res, err := c.Update(args[0])
	if err != nil {
		return err
	}
	if res.LSN > 0 {
		fmt.Printf("%s: applied %d of %d triples (lsn %d)\n", res.Kind, res.Applied, res.Total, res.LSN)
	} else {
		fmt.Printf("%s: applied %d of %d triples\n", res.Kind, res.Applied, res.Total)
	}
	return nil
}

// runVector drives the vector endpoints:
//
//	ids-cli vector upsert -store fp -key <iri> 0.1 0.2 0.3
//	ids-cli vector search -store fp -key <iri> -k 10
func runVector(c *ids.Client, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("vector requires a subcommand: upsert|search")
	}
	sub, args := args[0], args[1:]
	fs := flag.NewFlagSet("vector "+sub, flag.ExitOnError)
	store := fs.String("store", "", "vector store name")
	key := fs.String("key", "", "vector key (e.g. the entity IRI)")
	k := fs.Int("k", 10, "neighbours to return (search)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" || *key == "" {
		return fmt.Errorf("vector %s requires -store and -key", sub)
	}
	switch sub {
	case "upsert":
		if fs.NArg() == 0 {
			return fmt.Errorf("vector upsert requires the vector components as arguments")
		}
		vec := make([]float32, fs.NArg())
		for i, a := range fs.Args() {
			v, err := strconv.ParseFloat(a, 32)
			if err != nil {
				return fmt.Errorf("vector component %q: %w", a, err)
			}
			vec[i] = float32(v)
		}
		res, err := c.VectorUpsert(*store, *key, vec)
		if err != nil {
			return err
		}
		if res.LSN > 0 {
			fmt.Printf("%s: %s[%q] <- %d dims (lsn %d)\n", res.Kind, *store, *key, len(vec), res.LSN)
		} else {
			fmt.Printf("%s: %s[%q] <- %d dims\n", res.Kind, *store, *key, len(vec))
		}
		return nil
	case "search":
		hits, err := c.VectorSearch(*store, *key, *k)
		if err != nil {
			return err
		}
		t := metrics.NewTable(fmt.Sprintf("top-%d of %s near %q", *k, *store, *key), "key", "score")
		for _, h := range hits {
			t.AddRow(h.Key, fmt.Sprintf("%.6f", h.Score))
		}
		t.Render(os.Stdout)
		return nil
	}
	return fmt.Errorf("unknown vector subcommand %q (want upsert|search)", sub)
}

func runCheckpoint(c *ids.Client) error {
	info, err := c.Checkpoint()
	if err != nil {
		return err
	}
	fmt.Printf("checkpoint %s covers lsn %d (%.3fs)\n", info.Snapshot, info.LastLSN, info.Seconds)
	return nil
}

func main() {
	endpoint := flag.String("e", "http://127.0.0.1:7474", "IDS endpoint base URL")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c := ids.NewClient(*endpoint)

	var err error
	switch args[0] {
	case "query":
		err = runQuery(c, args[1:])
	case "update":
		err = runUpdate(c, args[1:])
	case "vector":
		err = runVector(c, args[1:])
	case "module":
		err = runModule(c, args[1:])
	case "snapshot":
		err = runSnapshot(c, args[1:])
	case "checkpoint":
		err = runCheckpoint(c)
	case "stats":
		err = runStats(c)
	case "profile":
		err = runProfile(c)
	case "metrics":
		err = runMetrics(c)
	case "trace":
		err = runTrace(c, args[1:])
	case "insights":
		err = runInsights(c, args[1:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runQuery(c *ids.Client, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	explain := fs.Bool("explain", false, "trace the query and render its EXPLAIN ANALYZE tree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	args = fs.Args()
	if len(args) != 1 {
		return fmt.Errorf("query takes exactly one argument")
	}
	var resp *ids.QueryResponse
	var err error
	if *explain {
		resp, err = c.QueryExplain(args[0])
	} else {
		resp, err = c.Query(args[0])
	}
	if err != nil {
		return err
	}
	t := metrics.NewTable("", resp.Vars...)
	for _, row := range resp.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = v
		}
		t.AddRow(cells...)
	}
	t.Render(os.Stdout)
	fmt.Printf("\n%d rows; simulated %.3fs (wall %.3fs)\n", len(resp.Rows), resp.Makespan, resp.WallTime)
	if resp.QID != "" {
		fmt.Printf("qid: %s (server log correlation id; full trace: ids-cli trace %s)\n", resp.QID, resp.QID)
	}
	if len(resp.Phases) > 0 {
		var parts []string
		for name, v := range resp.Phases {
			parts = append(parts, fmt.Sprintf("%s=%.3fs", name, v))
		}
		sort.Strings(parts)
		fmt.Println("phases:", strings.Join(parts, " "))
	}
	if resp.Trace != nil {
		fmt.Println()
		resp.Trace.Render(os.Stdout, true)
	}
	return nil
}

func runMetrics(c *ids.Client) error {
	text, err := c.MetricsText()
	if err != nil {
		return err
	}
	fmt.Print(text)
	return nil
}

func runTrace(c *ids.Client, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	artifact := fs.String("artifact", "", "download a profile instead of the trace: heap|goroutine")
	out := fs.String("o", "", "output file for -artifact (default <qid>.<artifact>)")
	// Accept the documented qid-first form (`trace q000042 -artifact
	// heap`): stdlib flag parsing stops at the first positional, so peel
	// the qid off before handing the rest to the FlagSet.
	var qid string
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		qid, args = args[0], args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		if qid != "" || fs.NArg() > 1 {
			return fmt.Errorf("trace takes at most one qid")
		}
		qid = fs.Arg(0)
	}
	switch {
	case qid == "" && *artifact != "":
		return fmt.Errorf("trace -artifact needs a qid")
	case qid == "":
		idx, err := c.Traces()
		if err != nil {
			return err
		}
		t := metrics.NewTable(fmt.Sprintf("%d stored traces", len(idx.Traces)),
			"qid", "start", "wall(s)", "status", "tail", "capture", "heap-profile", "goroutine-profile")
		for _, e := range idx.Traces {
			var heap, gor string
			if e.Capture != "" {
				heap, gor = obs.FormatBytes(int64(e.HeapBytes)), obs.FormatBytes(int64(e.GoroutineBytes))
			}
			t.AddRow(e.ID, e.Start.Format("15:04:05.000"), fmt.Sprintf("%.6f", e.WallSeconds),
				e.Status, e.TailReason, e.Capture, heap, gor)
		}
		t.Render(os.Stdout)
		return nil
	case *artifact == "":
		tr, err := c.Trace(qid)
		if err != nil {
			return err
		}
		tr.Render(os.Stdout, true)
		return nil
	}
	path := *out
	if path == "" {
		path = qid + "." + *artifact
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.TraceArtifact(qid, *artifact, f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%s profile written to %s\n", *artifact, path)
	if *artifact == "heap" {
		fmt.Printf("inspect with: go tool pprof %s\n", path)
	}
	return nil
}

// runInsights renders the workload observatory: the top fingerprints
// by observed count, with rolling latency/allocation quantiles,
// tail-retained trace counts, and linked flight records, plus the
// observatory totals footer.
func runInsights(c *ids.Client, args []string) error {
	fs := flag.NewFlagSet("insights", flag.ExitOnError)
	top := fs.Int("top", 10, "fingerprint rows to show (0 = all tracked)")
	showQuery := fs.Bool("q", false, "include each fingerprint's exemplar query text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, err := c.Insights(*top)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		fmt.Sprintf("workload insights: %d queries, %d shapes tracked (top-%d sketch, 1-in-%d tail sample)",
			snap.TotalQueries, snap.Tracked, snap.TopK, snap.SampleN),
		"fingerprint", "count", "err", "p50(s)", "p99(s)", "alloc-p99", "alloc-share", "tail", "flightrec", "last-qid")
	for _, f := range snap.Fingerprints {
		t.AddRow(f.Fingerprint, f.Count, f.Errors,
			fmt.Sprintf("%.6f", f.LatencyP50), fmt.Sprintf("%.6f", f.LatencyP99),
			obs.FormatBytes(int64(f.AllocP99)),
			fmt.Sprintf("%.1f%%", 100*f.AllocShare),
			f.Retained, strings.Join(f.FlightRecords, " "), f.LastQID)
	}
	t.Render(os.Stdout)
	if *showQuery {
		for _, f := range snap.Fingerprints {
			fmt.Printf("%s  %s\n", f.Fingerprint, f.Query)
		}
	}
	fmt.Printf("totals: %d errors, %s attributed, %d tail-retained traces, %d sketch takeovers\n",
		snap.TotalErrors, obs.FormatBytes(int64(snap.TotalAlloc)), snap.RetainedTraces, snap.Takeovers)
	return nil
}

func runModule(c *ids.Client, args []string) error {
	fs := flag.NewFlagSet("module", flag.ExitOnError)
	name := fs.String("name", "", "module name")
	file := fs.String("file", "", "IDscript source file")
	reload := fs.Bool("reload", false, "force reload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *file == "" {
		return fmt.Errorf("module requires -name and -file")
	}
	src, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	if *reload {
		err = c.ReloadModule(*name, string(src))
	} else {
		err = c.LoadModule(*name, string(src))
	}
	if err != nil {
		return err
	}
	fmt.Printf("module %s loaded (reload=%v)\n", *name, *reload)
	return nil
}

func runSnapshot(c *ids.Client, args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	out := fs.String("o", "graph.idsnap", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := c.Snapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("snapshot written to %s (%d bytes)\n", *out, info.Size())
	return nil
}

// runStats prints the graph size and traffic counters from /metrics
// and the names of the UDFs the profile has seen from /profile.
func runStats(c *ids.Client) error {
	text, err := c.MetricsText()
	if err != nil {
		return err
	}
	prof, err := c.Profile()
	if err != nil {
		return err
	}
	for _, name := range []string{"ids_graph_triples", "ids_graph_terms", "ids_queries_total", "ids_updates_total"} {
		fmt.Printf("%-18s %s\n", name, sampleValue(text, name))
	}
	udfs := make([]string, 0, len(prof))
	for n := range prof {
		udfs = append(udfs, n)
	}
	sort.Strings(udfs)
	fmt.Printf("%-18s %s\n", "udfs", strings.Join(udfs, ", "))
	return nil
}

// sampleValue returns the value of the unlabelled sample name in a
// metrics text exposition, or "?" when it is absent.
func sampleValue(text, name string) string {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return v
		}
	}
	return "?"
}

func runProfile(c *ids.Client) error {
	prof, err := c.Profile()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(prof))
	for n := range prof {
		names = append(names, n)
	}
	sort.Strings(names)
	t := metrics.NewTable("UDF profile (merged over ranks)",
		"udf", "execs", "total(s)", "mean(s)", "rejections")
	for _, n := range names {
		s := prof[n]
		t.AddRow(n, s.Execs, s.TotalSeconds, s.MeanSeconds(), s.Rejections)
	}
	t.Render(os.Stdout)
	return nil
}
