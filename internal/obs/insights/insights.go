// Package insights is the workload observatory (DESIGN.md §6): it
// aggregates per-query measurements by query *fingerprint* (shape)
// into bounded-memory heavy-hitter statistics, and makes the
// tail-sampling decision — which queries' full traces are worth
// retaining — that replaced the threshold-only slow-query log.
//
// The cost observatory (PR 6) answers "what did THIS query cost";
// this package answers "what does the WORKLOAD cost": which shapes
// dominate latency and allocation across the thousands of
// literal-variations an iterative exploration session re-issues.
package insights

import (
	"sort"
	"strings"
	"sync"

	"ids/internal/plan"
)

// Defaults for Config zero values.
const (
	DefaultTopK    = 64 // tracked fingerprints (sketch capacity)
	DefaultSampleN = 64 // 1-in-N per-fingerprint tail sample rate
)

// tailSlots is the fixed size of the per-fingerprint tail-sample
// counter table. Collisions just share a sample budget — acceptable
// for a sampling decision, and it keeps the sampler O(1) memory.
const tailSlots = 4096

// Config tunes the observatory. Zero values select defaults; explicit
// negatives disable (SampleN < 0 turns off 1-in-N sampling).
type Config struct {
	// TopK is the sketch capacity: how many fingerprints get full
	// rolling statistics.
	TopK int
	// SampleN retains every N-th query of each fingerprint regardless
	// of cost, so rare-but-healthy shapes keep a representative trace.
	// The first occurrence of a shape is always retained.
	SampleN int
	// SlowSeconds / AllocBudget are the tail thresholds (0 disables
	// each): a query at or above either is retained.
	SlowSeconds float64
	AllocBudget int64
}

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = DefaultTopK
	}
	if c.SampleN == 0 {
		c.SampleN = DefaultSampleN
	}
	return c
}

// Observation is one finished query as seen by the observatory.
type Observation struct {
	Fingerprint uint64
	Query       string
	QID         string
	Seconds     float64
	AllocBytes  int64
	Rows        int
	Error       bool
	Degraded    bool
}

// Decision is the tail-sampling verdict for one observation — the only
// place "slow" and "alloc" are decided. The serving layer pins, flags,
// counts, logs and profiles from it without re-measuring.
type Decision struct {
	Retain  bool
	Reasons []string // "slow", "error", "alloc", "sample"
}

// Has reports whether reason is one of the verdict's reasons.
func (d Decision) Has(reason string) bool {
	for _, r := range d.Reasons {
		if r == reason {
			return true
		}
	}
	return false
}

// Reason joins the reasons into the stamp stored on retained traces.
func (d Decision) Reason() string { return strings.Join(d.Reasons, ",") }

// FingerprintStats is one fingerprint's row in a Snapshot.
type FingerprintStats struct {
	Fingerprint string `json:"fingerprint"`
	// Count is the space-saving estimate; CountErr bounds its
	// overestimation (0 = exact).
	Count    uint64 `json:"count"`
	CountErr uint64 `json:"count_err,omitempty"`

	Errors   uint64 `json:"errors,omitempty"`
	Degraded uint64 `json:"degraded,omitempty"`
	Rows     uint64 `json:"rows"`
	Retained uint64 `json:"retained_traces,omitempty"`

	LatencyP50 float64 `json:"latency_p50_seconds"`
	LatencyP90 float64 `json:"latency_p90_seconds"`
	LatencyP99 float64 `json:"latency_p99_seconds"`
	AllocP50   float64 `json:"alloc_p50_bytes"`
	AllocP99   float64 `json:"alloc_p99_bytes"`
	AllocTotal uint64  `json:"alloc_total_bytes"`
	// AllocShare is this shape's fraction of all bytes the observatory
	// has attributed (including to since-evicted shapes).
	AllocShare float64 `json:"alloc_share"`

	Query   string `json:"query,omitempty"`
	LastQID string `json:"last_qid,omitempty"`
	// FlightRecords links breach captures of this shape (filled by the
	// serving layer from the /traces index rows that carry a capture).
	FlightRecords []string `json:"flight_records,omitempty"`
}

// Snapshot is the full observatory state for GET /insights.
type Snapshot struct {
	TotalQueries   uint64             `json:"total_queries"`
	TotalErrors    uint64             `json:"total_errors"`
	TotalAlloc     uint64             `json:"total_alloc_bytes"`
	RetainedTraces uint64             `json:"retained_traces"`
	Tracked        int                `json:"tracked_fingerprints"`
	Takeovers      uint64             `json:"sketch_takeovers"`
	TopK           int                `json:"top_k"`
	SampleN        int                `json:"sample_n"`
	Fingerprints   []FingerprintStats `json:"fingerprints"`
}

// Observatory accumulates per-fingerprint statistics and makes tail
// decisions. All methods are safe for concurrent use; Observe is
// O(1) amortized (O(TopK) on sketch takeover) and allocation-free on
// the tracked-fingerprint path.
type Observatory struct {
	cfg Config

	mu sync.Mutex
	sk *sketch
	// tailCounts is the fixed per-fingerprint occurrence table driving
	// 1-in-N sampling (fp mod tailSlots; collisions share a budget).
	tailCounts [tailSlots]uint64

	totalQueries uint64
	totalErrors  uint64
	totalAlloc   uint64
	retained     uint64
}

// New builds an observatory with cfg (zero fields → defaults).
func New(cfg Config) *Observatory {
	cfg = cfg.withDefaults()
	return &Observatory{cfg: cfg, sk: newSketch(cfg.TopK)}
}

// Config returns the resolved configuration.
func (o *Observatory) Config() Config { return o.cfg }

// Observe records one finished query and returns the tail decision.
func (o *Observatory) Observe(ob Observation) Decision {
	o.mu.Lock()
	defer o.mu.Unlock()

	o.totalQueries++
	if ob.Error {
		o.totalErrors++
	}
	if ob.AllocBytes > 0 {
		o.totalAlloc += uint64(ob.AllocBytes)
	}

	e := o.sk.get(ob.Fingerprint)
	if ob.Error {
		e.errors++
	}
	if ob.Degraded {
		e.degraded++
	}
	if ob.Rows > 0 {
		e.rows += uint64(ob.Rows)
	}
	if ob.AllocBytes > 0 {
		e.allocTotal += uint64(ob.AllocBytes)
		e.alloc.observe(float64(ob.AllocBytes))
	} else {
		e.alloc.observe(0)
	}
	e.lat.observe(ob.Seconds)
	if e.query == "" && ob.Query != "" {
		e.query = ob.Query
	}
	if ob.QID != "" {
		e.lastQID = ob.QID
	}

	var d Decision
	if o.cfg.SlowSeconds > 0 && ob.Seconds >= o.cfg.SlowSeconds {
		d.Reasons = append(d.Reasons, "slow")
	}
	if ob.Error {
		d.Reasons = append(d.Reasons, "error")
	}
	if o.cfg.AllocBudget > 0 && ob.AllocBytes >= o.cfg.AllocBudget {
		d.Reasons = append(d.Reasons, "alloc")
	}
	// 1-in-N per fingerprint: the counter advances on every
	// observation of the shape, and occurrence 0 (first sighting) is
	// always retained so every shape keeps at least one trace.
	if o.cfg.SampleN > 0 {
		slot := ob.Fingerprint % tailSlots
		if o.tailCounts[slot]%uint64(o.cfg.SampleN) == 0 {
			d.Reasons = append(d.Reasons, "sample")
		}
		o.tailCounts[slot]++
	}
	d.Retain = len(d.Reasons) > 0
	if d.Retain {
		o.retained++
		e.retained++
	}
	return d
}

// TopK returns the current top-k fingerprint rows, most-counted
// first, limited to n (n <= 0 → all tracked).
func (o *Observatory) TopK(n int) []FingerprintStats {
	return o.snapshotRows(n)
}

// Snapshot returns the full observatory state for /insights.
func (o *Observatory) Snapshot() Snapshot {
	o.mu.Lock()
	s := Snapshot{
		TotalQueries:   o.totalQueries,
		TotalErrors:    o.totalErrors,
		TotalAlloc:     o.totalAlloc,
		RetainedTraces: o.retained,
		Tracked:        len(o.sk.entries),
		Takeovers:      o.sk.takeovers,
		TopK:           o.cfg.TopK,
		SampleN:        o.cfg.SampleN,
	}
	o.mu.Unlock()
	s.Fingerprints = o.snapshotRows(0)
	return s
}

func (o *Observatory) snapshotRows(n int) []FingerprintStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	rows := make([]FingerprintStats, 0, len(o.sk.entries))
	for _, e := range o.sk.entries {
		r := FingerprintStats{
			Fingerprint: plan.FormatFingerprint(e.fp),
			Count:       e.count,
			CountErr:    e.countErr,
			Errors:      e.errors,
			Degraded:    e.degraded,
			Rows:        e.rows,
			Retained:    e.retained,
			LatencyP50:  e.lat.quantile(0.50),
			LatencyP90:  e.lat.quantile(0.90),
			LatencyP99:  e.lat.quantile(0.99),
			AllocP50:    e.alloc.quantile(0.50),
			AllocP99:    e.alloc.quantile(0.99),
			AllocTotal:  e.allocTotal,
			Query:       e.query,
			LastQID:     e.lastQID,
		}
		if o.totalAlloc > 0 {
			r.AllocShare = float64(e.allocTotal) / float64(o.totalAlloc)
		}
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Fingerprint < rows[j].Fingerprint
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}
