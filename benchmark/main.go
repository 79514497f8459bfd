// Command benchmark is the serving-path benchmark of record: it builds
// the NCNPR dataset, launches a real ids.Launcher instance, drives it
// over loopback with ids.Client, checks every answer, and prints every
// metric BENCHMARK.json names. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"ids/internal/ids"
)

// outDir holds trace.json and the scratch directories of durable
// instances, relative to the checkout root the benchmark is run from.
const outDir = "benchmark/out"

// setupRepeats is how many times an end-to-end run sets up; setup_s is
// the median, which one slow dataset build cannot move.
const setupRepeats = 3

// newClient returns an ids.Client on its own keep-alive connection.
func newClient(addr string) *ids.Client {
	c := ids.NewClient("http://" + addr)
	c.HTTP.Transport = &http.Transport{MaxIdleConnsPerHost: 1}
	return c
}

// runConfig is one invocation's arguments.
type runConfig struct {
	workload    string
	seed        int64
	datasetSeed int64
	window      time.Duration
	traced      bool
}

// outcome is one run's result: what the driver reads, plus what a
// reader of the table wants to know about how it was measured.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	notes     []string
	// noisy: the window's ops_per_s slices disagreed by more than 25%.
	noisy bool
}

// run executes one workload once, end to end or traced.
func run(cfg runConfig) (*outcome, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	durable := cfg.workload == "read_write"
	repeats := setupRepeats
	if cfg.traced {
		repeats = 1 // setup_s is an end-to-end metric
	}
	var sys *system
	var setups []float64
	for i := 0; i < repeats; i++ {
		if sys != nil {
			sys.close()
		}
		dir := ""
		if durable {
			var err error
			if dir, err = os.MkdirTemp(outDir, "data-"); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if sys, err = setUp(ncnprConfig(cfg.datasetSeed), cfg.seed, vecCount, dir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { sys.close() }()

	cat := newCatalog(sys.ds, sys.vecKeys)
	if cfg.workload == "ncnpr_screen" {
		if err := cat.buildScreenTruth(sys.inst.Engine.Reg); err != nil {
			return nil, err
		}
	}
	// Earlier set-ups are garbage by now; collect them so every run
	// starts its window from the same heap.
	runtime.GC()
	primed, err := prime(sys, cat, cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}

	// lanes are the op streams the run executed: the recall and
	// durability checks need them, the outcome must not keep them (they
	// reach the catalog and the dataset, which a later run of the same
	// process would otherwise count in live_heap_mb).
	var out *outcome
	var lanes []*lane
	if cfg.traced {
		if out, lanes, err = runTraced(sys, cat, cfg, primed); err != nil {
			return nil, err
		}
	} else {
		if out, lanes, err = runLoad(sys, cat, cfg); err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = median(setups)
		out.notes = append(out.notes, fmt.Sprintf("setup_s: median of %d set-ups %.3f", len(setups), setups))
		if durable {
			took, err := checkDurable(sys, append(lanes, primed))
			if err != nil {
				return nil, err
			}
			out.metrics["recovery_s"] = took.Seconds()
		}
	}
	out.correct = out.failed == 0
	out.metrics["error_rate"] = float64(out.failed) / float64(out.attempted)
	found, want, err := recall(sys, append(lanes, primed))
	if err != nil {
		return nil, err
	}
	if want > 0 {
		r := float64(found) / float64(want)
		out.notes = append(out.notes, fmt.Sprintf("similar recall@%d %.4f over %d answers", similarK, r, want/similarK))
		if r < minRecall {
			out.correct = false
			out.notes = append(out.notes, fmt.Sprintf("WRONG: recall below %.2f", minRecall))
		}
	}
	return out, nil
}

// number renders a value in a fixed-width column, keeping the digits
// of the small ones (a virtual makespan of 40 us must not read 0.0000).
func number(v float64) string {
	if v != 0 && v > -0.01 && v < 0.01 {
		return fmt.Sprintf("%14.6g", v)
	}
	return fmt.Sprintf("%14.4f", v)
}

// report prints one run for a reader: every metric by name with its
// unit, then the notes (sample counts, slicing, noise).
func report(cfg runConfig, o *outcome) {
	specs, kind := endToEnd, "end-to-end, 2 closed-loop clients, probes off"
	if cfg.traced {
		specs, kind = perLayer, "per-layer, 1 client, every op re-executed through each probe"
	}
	fmt.Printf("\n== %s  seed %d  %s  (%s)\n", cfg.workload, cfg.seed, cfg.window, kind)
	for _, s := range specs {
		fmt.Printf("  %-30s %s %s\n", s.Name, number(o.metrics[s.Name]), s.Unit)
	}
	if !cfg.traced {
		for _, extra := range []struct{ name, unit string }{
			{"error_rate", "ratio"}, {"update_p50_ms", "ms"}, {"update_p95_ms", "ms"}, {"recovery_s", "s"},
		} {
			if v, ok := o.metrics[extra.name]; ok {
				fmt.Printf("  %-30s %s %s\n", extra.name, number(v), extra.unit)
			}
		}
	}
	fmt.Printf("  attempted %d  failed %d  correct %t\n", o.attempted, o.failed, o.correct)
	for _, n := range o.notes {
		fmt.Println("  note:", n)
	}
}

// resultLine is the driver's contract: the last line of standard output.
func resultLine(cfg runConfig, o *outcome) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs := endToEnd
	if cfg.traced {
		specs = perLayer
	}
	metrics := map[string]value{}
	for _, s := range specs {
		metrics[s.Name] = value{o.metrics[s.Name], s.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, o.attempted, o.failed, metrics})
	return string(b), err
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// aa runs every workload twice on the same build and fails when the
// two disagree by more than a metric's own bound.
func aa(base runConfig) bool {
	ok := true
	for _, w := range workloads {
		cfg := base
		cfg.workload = w.Name
		var runs [2]*outcome
		for i := range runs {
			o, err := run(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return false
			}
			report(cfg, o)
			runs[i] = o
			if o.noisy || !o.correct {
				ok = false
			}
		}
		fmt.Printf("\n== A/A %s\n  %-20s %14s %14s %9s %7s\n", w.Name, "metric", "run 1", "run 2", "diff", "bound")
		for _, s := range endToEnd {
			a, b := runs[0].metrics[s.Name], runs[1].metrics[s.Name]
			diff := relWorse(a, b, s.Better)
			verdict := ""
			if diff > s.Bound || -diff > s.Bound {
				verdict, ok = "  OVER BOUND", false
			}
			fmt.Printf("  %-20s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n", s.Name, a, b, 100*diff, 100*s.Bound, verdict)
		}
	}
	return ok
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	workload := flag.String("workload", "", "workload to run: "+strings.Join(names, ", ")+" (empty: all four, end to end then traced)")
	seed := flag.Int64("seed", 1, "seed of the op stream and the vector corpus")
	seconds := flag.Int("seconds", 12, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end run with probes off; 1: traced per-layer run")
	datasetSeed := flag.Int64("dataset-seed", 7, "seed of the generated NCNPR graph")
	aaMode := flag.Bool("aa", false, "run every workload end to end twice and compare the two within each metric's bound")
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	base := runConfig{seed: *seed, datasetSeed: *datasetSeed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1}
	fmt.Printf("benchmark: nproc %d  GOMAXPROCS %d  %s  commit %s  seed %d  dataset-seed %d  warm-up %s  window %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), base.seed, base.datasetSeed, warmUp, base.window)

	switch {
	case *aaMode:
		if !aa(base) {
			os.Exit(1)
		}
	case *workload == "":
		good := true
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				cfg := base
				cfg.workload, cfg.traced = w.Name, traced
				o, err := run(cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
					os.Exit(1)
				}
				report(cfg, o)
				good = good && o.correct
			}
		}
		if !good {
			os.Exit(1)
		}
	default:
		if decks[*workload] == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
			os.Exit(2)
		}
		cfg := base
		cfg.workload = *workload
		o, err := run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
			os.Exit(1)
		}
		report(cfg, o)
		line, err := resultLine(cfg, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(line)
		if !o.correct {
			os.Exit(1)
		}
	}
}
