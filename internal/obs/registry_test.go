package obs

import (
	"bufio"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "op", "scan")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	if r.Counter("test_total", "op", "scan") != c {
		t.Fatal("same name+labels must return the same counter")
	}
	if r.Counter("test_total", "op", "join") == c {
		t.Fatal("different labels must return a different counter")
	}

	g := r.Gauge("test_gauge")
	g.Set(4)
	g.Add(-1.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}

	h := r.Histogram("test_seconds", ExpBuckets(1, 2, 8))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("histogram count/sum = %d/%v", h.Count(), h.Sum())
	}
	// p50 = 50 lands in the (32, 64] bucket.
	if q := h.Quantile(0.5); q <= 32 || q > 64 {
		t.Fatalf("p50 = %v, want in (32, 64]", q)
	}
	if r.Histogram("test_seconds", nil) != h {
		t.Fatal("same name must return the same histogram")
	}
}

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("concurrent counter = %v, want 8000", got)
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	n := 0
	r.AddCollector(func(r *Registry) {
		n++
		r.Gauge("collected_gauge").Set(float64(n))
	})
	var sb strings.Builder
	r.WritePrometheus(&sb)
	r.WritePrometheus(&sb)
	if n != 2 {
		t.Fatalf("collector ran %d times, want 2", n)
	}
	if !strings.Contains(sb.String(), "collected_gauge 2") {
		t.Fatalf("collected gauge missing:\n%s", sb.String())
	}
}

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var promLineRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
var promLabelRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)

// unescapeLabel reverses the text-format label escaping.
func unescapeLabel(v string) string {
	var sb strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '\\' && i+1 < len(v) {
			i++
			switch v[i] {
			case 'n':
				sb.WriteByte('\n')
			default:
				sb.WriteByte(v[i])
			}
			continue
		}
		sb.WriteByte(v[i])
	}
	return sb.String()
}

// parsePrometheus is a strict miniature parser of the text exposition
// format used for the round-trip test: every non-comment line must
// parse, every samples' family must have a preceding TYPE line.
func parsePrometheus(t *testing.T, text string) []promSample {
	t.Helper()
	typed := map[string]string{}
	var out []promSample
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "untyped":
			default:
				t.Fatalf("invalid metric type in %q", line)
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promLineRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		name, labelStr, valStr := m[1], m[3], m[4]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_sum"), "_count"), "_bucket")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("sample %q has no preceding TYPE line", line)
			}
		}
		labels := map[string]string{}
		for _, lm := range promLabelRE.FindAllStringSubmatch(labelStr, -1) {
			labels[lm[1]] = unescapeLabel(lm[2])
		}
		out = append(out, promSample{name: name, labels: labels, value: v})
	}
	return out
}

func TestPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Describe("rt_queries_total", "Total queries.")
	r.Counter("rt_queries_total").Add(7)
	r.Counter("rt_rows_total", "op", "scan").Add(100)
	r.Counter("rt_rows_total", "op", "filter").Add(40)
	r.Gauge("rt_temp", "site", `weird"label\with`+"\nnewline").Set(1.25)
	h := r.Histogram("rt_seconds", []float64{1, 5})
	for i := 0; i < 10; i++ {
		h.Observe(float64(i))
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
	samples := parsePrometheus(t, sb.String())

	find := func(name string, kv ...string) *promSample {
		for i := range samples {
			sp := &samples[i]
			if sp.name != name {
				continue
			}
			ok := true
			for j := 0; j+1 < len(kv); j += 2 {
				if sp.labels[kv[j]] != kv[j+1] {
					ok = false
				}
			}
			if ok {
				return sp
			}
		}
		t.Fatalf("sample %s %v not found in:\n%s", name, kv, sb.String())
		return nil
	}

	if sp := find("rt_queries_total"); sp.value != 7 {
		t.Fatalf("rt_queries_total = %v", sp.value)
	}
	if sp := find("rt_rows_total", "op", "scan"); sp.value != 100 {
		t.Fatalf("scan rows = %v", sp.value)
	}
	if sp := find("rt_rows_total", "op", "filter"); sp.value != 40 {
		t.Fatalf("filter rows = %v", sp.value)
	}
	if sp := find("rt_temp", "site", `weird"label\with`+"\nnewline"); sp.value != 1.25 {
		t.Fatalf("escaped gauge = %v", sp.value)
	}
	if sp := find("rt_seconds_count"); sp.value != 10 {
		t.Fatalf("histogram count = %v", sp.value)
	}
	if sp := find("rt_seconds_sum"); sp.value != 45 {
		t.Fatalf("histogram sum = %v", sp.value)
	}
	if sp := find("rt_seconds_bucket", "le", "5"); sp.value != 6 {
		t.Fatalf("le=5 bucket = %v, want 6", sp.value)
	}
	if sp := find("rt_seconds_bucket", "le", "+Inf"); sp.value != 10 {
		t.Fatalf("+Inf bucket = %v, want 10", sp.value)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("js_total", "op", "scan").Add(3)
	r.Histogram("js_seconds", nil).Observe(0.5)
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot families = %d, want 2", len(snap))
	}
	byName := map[string]FamilyJSON{}
	for _, f := range snap {
		byName[f.Name] = f
	}
	if f := byName["js_total"]; f.Type != TypeCounter || f.Series[0].Value != 3 || f.Series[0].Labels["op"] != "scan" {
		t.Fatalf("bad counter family: %+v", f)
	}
	if f := byName["js_seconds"]; f.Type != TypeHistogram || f.Series[0].Count != 1 || len(f.Series[0].Buckets) == 0 {
		t.Fatalf("bad histogram family: %+v", f)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("mix_total")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on type mismatch")
		}
	}()
	r.Gauge("mix_total")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid metric name")
		}
	}()
	r.Counter("bad name with spaces")
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
	_ = fmt.Sprint(c.Value())
}
