package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ids/internal/ids"
)

const (
	loadClients = 2
	// primeOps is how many ops one client runs before anything is
	// timed: a full deck of every workload, so each class has run once
	// (the first ncnpr_screen op alone fills the 30k-entry UDF memo).
	primeOps = 20
	warmUp   = 3 * time.Second
	// minRecall is the floor on SIMILAR answers against the exact scan.
	minRecall = 0.95
)

// answer is what one executed op returned.
type answer struct {
	rows    [][]string
	applied int
}

// execOp sends one op through ids.Client, with no retries.
func execOp(c *ids.Client, o op, tag string) (answer, error) {
	if o.update {
		res, err := c.Update(o.render(tag))
		if err != nil {
			return answer{}, err
		}
		return answer{applied: res.Applied}, nil
	}
	resp, err := c.Query(o.render(tag))
	if err != nil {
		return answer{}, err
	}
	return answer{rows: resp.Rows}, nil
}

// check reports whether an answer is right: always by row count, and
// for ops marked full by the exact row set. SIMILAR answers are
// approximate by design; their recall is checked over the whole run.
func (c *catalog) check(o op, a answer) bool {
	if o.update {
		return a.applied == o.rows
	}
	if len(a.rows) != o.rows {
		return false
	}
	if !o.full {
		return true
	}
	switch o.class {
	case classAggregate:
		return c.checkAggregate(a.rows)
	case classSimilar:
		return true
	}
	return sameRows(a.rows, c.wantRows(o))
}

// sample is one completed op of a closed-loop client.
type sample struct {
	end    time.Time
	lat    time.Duration
	class  string
	update bool
	failed bool
}

// similarAnswer keeps a SIMILAR op's hits for the recall check.
type similarAnswer struct {
	key  string
	hits []string
}

// lane is one sequential stream of ops under its own insert tag: a
// load client, the priming pass, or one probe of the traced run.
type lane struct {
	tag      string
	gen      *generator
	samples  []sample
	similars []similarAnswer
}

func newLane(tag, workload string, seed int64, client int, cat *catalog) *lane {
	return &lane{tag: tag, gen: newGenerator(workload, seed, client, cat)}
}

// step deals the lane's next op, executes it through c, checks it and
// records the sample.
func (l *lane) step(c *ids.Client, cat *catalog) (op, sample) {
	o := l.gen.next()
	start := time.Now()
	a, err := execOp(c, o, l.tag)
	end := time.Now()
	s := sample{end: end, lat: end.Sub(start), class: o.class, update: o.update, failed: err != nil || !cat.check(o, a)}
	if o.class == classSimilar && err == nil {
		hits := make([]string, len(a.rows))
		for i, r := range a.rows {
			hits[i] = r[0]
		}
		l.similars = append(l.similars, similarAnswer{key: o.key, hits: hits})
	}
	l.samples = append(l.samples, s)
	return o, s
}

// prime runs the first ops of client 0's stream once, untimed.
func prime(sys *system, cat *catalog, workload string, seed int64) (*lane, error) {
	l := newLane("prime", workload, seed, 0, cat)
	c := newClient(sys.inst.Addr)
	defer c.HTTP.CloseIdleConnections()
	for i := 0; i < primeOps; i++ {
		if o, s := l.step(c, cat); s.failed {
			return nil, fmt.Errorf("priming op %d (%s) failed or answered wrongly: %s", o.id, o.class, o.render(l.tag))
		}
	}
	return l, nil
}

func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// runLoad is the end-to-end run: it drives the instance with
// closed-loop clients, each on its own keep-alive connection, through
// the warm-up and then the measured window. Samples count when they
// complete inside the window.
func runLoad(sys *system, cat *catalog, cfg runConfig) (*outcome, []*lane, error) {
	lanes := make([]*lane, loadClients)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := range lanes {
		lanes[i] = newLane(fmt.Sprintf("c%d", i), cfg.workload, cfg.seed, i, cat)
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			c := newClient(sys.inst.Addr)
			defer c.HTTP.CloseIdleConnections()
			for !stop.Load() {
				l.step(c, cat)
			}
		}(lanes[i])
	}
	time.Sleep(warmUp)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, err := cpuTime()
	t0 := time.Now()
	time.Sleep(cfg.window)
	t1 := time.Now()
	cpu1, err1 := cpuTime()
	runtime.ReadMemStats(&m1)
	stop.Store(true)
	wg.Wait()
	if err != nil || err1 != nil {
		return nil, nil, fmt.Errorf("getrusage: %v %v", err, err1)
	}
	// Twice: the first collection only moves sync.Pool contents (the
	// 1.6 MB encode buffers of bulk_export) to the victim cache.
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	res := &outcome{metrics: map[string]float64{}}
	var all, updates []timed
	for _, l := range lanes {
		for _, s := range l.samples {
			if s.end.Before(t0) || !s.end.Before(t1) {
				continue
			}
			res.attempted++
			if s.failed {
				res.failed++
				continue
			}
			t := timed{at: s.end.Sub(t0), lat: float64(s.lat) / float64(time.Millisecond)}
			all = append(all, t)
			if s.update {
				updates = append(updates, t)
			}
		}
	}
	if len(all) == 0 {
		return nil, nil, fmt.Errorf("no op completed correctly inside the %s window", cfg.window)
	}
	measured := t1.Sub(t0)
	tp := sliceThroughput(all, measured)
	res.noisy = tp.Noisy
	res.metrics["ops_per_s"] = tp.Median
	res.notes = append(res.notes, fmt.Sprintf("ops_per_s slices: min %.1f max %.1f over %d slices, %d ops", tp.Min, tp.Max, sliceCounts[0], len(all)))
	if tp.Noisy {
		res.notes = append(res.notes, "noisy: ops_per_s slices differ by more than 25% of their median")
	}
	for _, q := range []struct {
		name    string
		samples []timed
		q       float64
	}{
		{"p50_ms", all, 0.50}, {"p95_ms", all, 0.95},
		{"update_p50_ms", updates, 0.50}, {"update_p95_ms", updates, 0.95},
	} {
		if len(q.samples) == 0 {
			continue // a workload without updates reports no update latency
		}
		v, k, ok := slicePercentile(q.samples, measured, q.q)
		if !ok {
			return nil, nil, fmt.Errorf("%s: %d samples leave fewer than %d beyond the percentile; lengthen the window", q.name, len(q.samples), minBeyond)
		}
		res.metrics[q.name] = v
		res.notes = append(res.notes, fmt.Sprintf("%s: median over %d slice(s), %d samples", q.name, k, len(q.samples)))
	}
	ops := float64(len(all))
	res.metrics["cpu_ms_per_op"] = float64(cpu1-cpu0) / float64(time.Millisecond) / ops
	res.metrics["alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops
	res.metrics["live_heap_mb"] = float64(live.HeapAlloc) / (1 << 20)
	return res, lanes, nil
}

// recall is the share of the exact top-k (by Store.Search) that the
// recorded SIMILAR answers returned, over all of them.
func recall(sys *system, lanes []*lane) (found, want int, err error) {
	for _, l := range lanes {
		for _, s := range l.similars {
			v, err := sys.vecs.Get(s.key)
			if err != nil {
				return 0, 0, err
			}
			exact, err := sys.vecs.Search(v, similarK)
			if err != nil {
				return 0, 0, err
			}
			for _, r := range exact {
				if slices.Contains(s.hits, iriText(r.Key)) {
					found++
				}
			}
			want += len(exact)
		}
	}
	return found, want, nil
}

// checkDurable relaunches the durable instance from its directory and
// verifies that exactly the acknowledged, undeleted inserts of every
// lane are readable. It returns the relaunch time.
func checkDurable(sys *system, lanes []*lane) (time.Duration, error) {
	took, err := sys.relaunch()
	if err != nil {
		return 0, err
	}
	c := newClient(sys.inst.Addr)
	defer c.HTTP.CloseIdleConnections()
	resp, err := c.Query("SELECT ?s WHERE { ?s <" + predNote + "> ?o }")
	if err != nil {
		return 0, fmt.Errorf("durability read-back: %w", err)
	}
	got := map[string]bool{}
	for _, r := range resp.Rows {
		got[r[0]] = true
	}
	want := 0
	for _, l := range lanes {
		for _, s := range l.gen.liveSubjects(l.tag) {
			want++
			if !got[s] {
				return 0, fmt.Errorf("durability: acknowledged insert %s lost across restart", s)
			}
		}
	}
	if len(got) != want {
		return 0, fmt.Errorf("durability: %d note triples after restart, want %d (an acknowledged delete came back)", len(got), want)
	}
	return took, nil
}
