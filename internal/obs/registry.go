// Package obs is the observability layer of the IDS reproduction: a
// per-engine metrics registry (atomic counters, gauges, fixed-bucket
// histograms) with Prometheus-text and JSON exposition,
// and a per-query span tracer that records the hierarchical execution
// timeline (parse -> plan -> per-operator -> per-rank) the paper's
// runtime-measurement-driven optimizer needs to be inspectable.
//
// The registry is deliberately dependency-free: instrumented packages
// hold *Counter/*Gauge/*Histogram handles (atomic, safe for concurrent
// use from rank goroutines) and the HTTP layer renders the whole
// registry on GET /metrics.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus exposition type of a metric family.
type MetricType string

// Metric family types.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// histQuantiles are the quantiles the JSON exposition estimates per
// histogram.
var histQuantiles = []float64{0.5, 0.9, 0.99}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Counter is a monotonically increasing float64. All methods are safe
// for concurrent use.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored; counters are monotonic).
func (c *Counter) Add(v float64) {
	if v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Set overwrites the counter value. It exists for collectors that
// mirror an external monotonic source (e.g. wal.Stats) into the
// registry at scrape time; instrumentation code should use Add/Inc.
func (c *Counter) Set(v float64) { c.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an arbitrary float64 value. Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (may be negative).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// series is one labeled instance within a family.
type series struct {
	labels  []string // alternating key, value
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups all series of one metric name.
type family struct {
	name   string
	help   string
	typ    MetricType
	series map[string]*series
	order  []string
	// bounds is the bucket layout shared by every histogram series in
	// the family (set on first Histogram call).
	bounds []float64
}

// Registry holds metric families and renders them. Each engine creates
// its own so parallel engines (tests, experiments) do not cross-pollute.
type Registry struct {
	mu         sync.Mutex
	fams       map[string]*family
	order      []string
	collectors []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Describe sets the help text of a metric family (creating it lazily
// is fine; help attaches when the family first materializes too).
func (r *Registry) Describe(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		f.help = help
	} else {
		r.fams[name] = &family{name: name, help: help, series: map[string]*series{}}
		r.order = append(r.order, name)
	}
}

// AddCollector registers fn to run at the start of every exposition,
// letting externally-owned stats (WAL counters, UDF profiles) be
// mirrored into the registry at scrape time.
func (r *Registry) AddCollector(fn func(*Registry)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// labelKey renders alternating key/value pairs into the canonical
// series key (also the Prometheus label string).
func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=\"%s\"", labels[i], escapeLabel(labels[i+1]))
	}
	return sb.String()
}

// escapeLabel escapes a label value per the Prometheus text format
// (backslash, double quote, newline).
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\"", `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// get returns (creating if needed) the series for name+labels,
// checking the family type matches. bounds applies to histogram
// families only (first caller fixes the family's bucket layout).
func (r *Registry) get(name string, typ MetricType, bounds []float64, labels []string) *series {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label pairs for %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, series: map[string]*series{}}
		r.fams[name] = f
		r.order = append(r.order, name)
	}
	if f.typ == "" {
		f.typ = typ
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	if typ == TypeHistogram && f.bounds == nil {
		if len(bounds) == 0 {
			bounds = DefLatencyBuckets
		}
		f.bounds = append([]float64(nil), bounds...)
	}
	key := labelKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: append([]string(nil), labels...)}
		switch typ {
		case TypeCounter:
			s.counter = &Counter{}
		case TypeGauge:
			s.gauge = &Gauge{}
		case TypeHistogram:
			s.hist = NewHistogram(f.bounds)
		}
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns the counter for name with the given alternating
// label key/value pairs, creating it on first use.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.get(name, TypeCounter, nil, labels).counter
}

// Gauge returns the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.get(name, TypeGauge, nil, labels).gauge
}

// Histogram returns the histogram for name+labels, creating it on
// first use. The first call for a family fixes its bucket layout
// (nil/empty bounds select DefLatencyBuckets); later calls reuse it.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	return r.get(name, TypeHistogram, bounds, labels).hist
}

// collect runs collectors, then snapshots families in registration
// order for rendering.
func (r *Registry) collect() []*family {
	r.mu.Lock()
	collectors := append([]func(*Registry){}, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(r)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.fams[name])
	}
	return out
}

// WritePrometheus renders the registry in the classic Prometheus text
// exposition format (version 0.0.4). No exemplars: the 0.0.4 parser
// treats anything after the sample value as a timestamp, so exemplar
// suffixes would fail the whole scrape. Scrapers that want exemplars
// negotiate OpenMetrics (WriteOpenMetrics) instead.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.write(w, false)
}

// WriteOpenMetrics renders the registry in the OpenMetrics text
// exposition format: histogram _bucket lines carry their pinned
// trace-ID exemplar (` # {trace_id="qid"} v`) — the scrapeable link
// from a latency/alloc bucket to the query trace that landed in it —
// and the output ends with the mandatory `# EOF` terminator. Serve
// this only when the scraper sent Accept: application/openmetrics-text
// and label the response with the matching Content-Type.
func (r *Registry) WriteOpenMetrics(w io.Writer) {
	r.write(w, true)
	fmt.Fprintln(w, "# EOF")
}

// write renders all families; exemplars selects the OpenMetrics
// bucket syntax (the two expositions otherwise share sample text).
func (r *Registry) write(w io.Writer, exemplars bool) {
	for _, f := range r.collect() {
		if len(f.series) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, key := range f.order {
			s := f.series[key]
			switch f.typ {
			case TypeCounter:
				writeSample(w, f.name, key, "", s.counter.Value())
			case TypeGauge:
				writeSample(w, f.name, key, "", s.gauge.Value())
			case TypeHistogram:
				cum := s.hist.Cumulative()
				for i, bound := range f.bounds {
					var ex *Exemplar
					if exemplars {
						ex = s.hist.BucketExemplar(i)
					}
					writeBucket(w, f.name, bucketKey(key, fmt.Sprintf("%g", bound)), float64(cum[i]), ex)
				}
				var ex *Exemplar
				if exemplars {
					ex = s.hist.BucketExemplar(len(f.bounds))
				}
				writeBucket(w, f.name, bucketKey(key, "+Inf"), float64(cum[len(cum)-1]), ex)
				writeSample(w, f.name, key, "_sum", s.hist.Sum())
				writeSample(w, f.name, key, "_count", float64(s.hist.Count()))
			}
		}
	}
}

// writeBucket renders one cumulative _bucket sample, appending the
// bucket's pinned exemplar OpenMetrics-style (` # {trace_id="qid"} v`)
// when one was passed in (OpenMetrics exposition only — never in the
// 0.0.4 rendering, whose parser rejects the suffix).
func writeBucket(w io.Writer, name, labelStr string, v float64, ex *Exemplar) {
	if ex == nil {
		writeSample(w, name, labelStr, "_bucket", v)
		return
	}
	fmt.Fprintf(w, "%s_bucket{%s} %s # {trace_id=%q} %s\n",
		name, labelStr, formatValue(v), ex.TraceID, formatValue(ex.Value))
}

// bucketKey appends the le label to an existing label string.
func bucketKey(key, le string) string {
	if key != "" {
		key += ","
	}
	return key + fmt.Sprintf("le=%q", le)
}

func writeSample(w io.Writer, name, labelStr, suffix string, v float64) {
	if labelStr == "" {
		fmt.Fprintf(w, "%s%s %s\n", name, suffix, formatValue(v))
		return
	}
	fmt.Fprintf(w, "%s%s{%s} %s\n", name, suffix, labelStr, formatValue(v))
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// SeriesJSON is the JSON exposition of one labeled series.
type SeriesJSON struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value,omitempty"`
	// Histogram fields.
	Count     int64              `json:"count,omitempty"`
	Sum       float64            `json:"sum,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
	// Histogram-only: cumulative counts keyed by upper bound, in
	// bound order (quantiles above are bucket-interpolated estimates).
	Buckets []BucketJSON `json:"buckets,omitempty"`
}

// BucketJSON is one cumulative histogram bucket.
type BucketJSON struct {
	LE         string `json:"le"`
	Cumulative uint64 `json:"cumulative"`
}

// FamilyJSON is the JSON exposition of one metric family.
type FamilyJSON struct {
	Name   string       `json:"name"`
	Type   MetricType   `json:"type"`
	Help   string       `json:"help,omitempty"`
	Series []SeriesJSON `json:"series"`
}

// Snapshot returns the registry as JSON-ready family records.
func (r *Registry) Snapshot() []FamilyJSON {
	var out []FamilyJSON
	for _, f := range r.collect() {
		if len(f.series) == 0 {
			continue
		}
		fj := FamilyJSON{Name: f.name, Type: f.typ, Help: f.help}
		for _, key := range f.order {
			s := f.series[key]
			sj := SeriesJSON{}
			if len(s.labels) > 0 {
				sj.Labels = map[string]string{}
				for i := 0; i+1 < len(s.labels); i += 2 {
					sj.Labels[s.labels[i]] = s.labels[i+1]
				}
			}
			switch f.typ {
			case TypeCounter:
				sj.Value = s.counter.Value()
			case TypeGauge:
				sj.Value = s.gauge.Value()
			case TypeHistogram:
				sj.Count = int64(s.hist.Count())
				sj.Sum = s.hist.Sum()
				sj.Quantiles = map[string]float64{}
				for _, q := range histQuantiles {
					sj.Quantiles[fmt.Sprintf("%g", q)] = s.hist.Quantile(q)
				}
				cum := s.hist.Cumulative()
				for i, bound := range f.bounds {
					sj.Buckets = append(sj.Buckets, BucketJSON{LE: fmt.Sprintf("%g", bound), Cumulative: cum[i]})
				}
				sj.Buckets = append(sj.Buckets, BucketJSON{LE: "+Inf", Cumulative: cum[len(cum)-1]})
			}
			fj.Series = append(fj.Series, sj)
		}
		out = append(out, fj)
	}
	return out
}
