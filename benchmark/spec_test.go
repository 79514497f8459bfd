package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors the driver's schema of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json and spec.go must name the same workloads and metrics,
// with the same units, directions and bounds, in the same order.
func TestBenchmarkJSONAgreesWithSpec(t *testing.T) {
	b := readBenchmarkJSON(t)
	var gotW []workloadSpec
	for _, w := range b.Workloads {
		gotW = append(gotW, workloadSpec{w.Name, w.Why})
	}
	if !reflect.DeepEqual(gotW, workloads) {
		t.Errorf("workloads differ:\n json %v\n spec %v", gotW, workloads)
	}
	var gotE, gotL []metricSpec
	for _, m := range b.EndToEnd {
		gotE = append(gotE, metricSpec{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range b.PerLayer {
		gotL = append(gotL, metricSpec{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(gotE, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n spec %v", gotE, endToEnd)
	}
	if !reflect.DeepEqual(gotL, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n spec %v", gotL, perLayer)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", b.RunSeconds)
	}
}

// The driver's limits on the vocabulary itself.
func TestSpecMeetsTheContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if n == "" || len(n) > 64 || seen[n] {
			t.Errorf("name %q is empty, longer than 64 or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters, limit 200", w.Name, len(w.Why))
		}
		if decks[w.Name] == nil {
			t.Errorf("workload %s has no deck", w.Name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		name(m.Name)
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if len(m.Unit) == 0 || len(m.Unit) > 16 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q is out of contract", m.Name, m.Unit, m.Better)
		}
	}
}

// Every metric a run computes must be in the vocabulary, and the result
// line must carry exactly the vocabulary of its mode.
func TestEmittedNamesAreTheSpec(t *testing.T) {
	tr := &tracer{}
	for _, l := range layers {
		for _, class := range []string{classPoint, classUpdate} {
			tr.spans = append(tr.spans, span{Class: class, Name: l.span, EndNS: int64(time.Microsecond)})
		}
	}
	m := map[string]float64{}
	tr.spanMetrics(m)
	known := map[string]bool{}
	for _, s := range perLayer {
		known[s.Name] = true
	}
	for name := range m {
		if !known[name] {
			t.Errorf("the traced run computes %q, which per_layer does not name", name)
		}
	}
	for _, traced := range []bool{false, true} {
		line, err := resultLine(runConfig{traced: traced}, &outcome{correct: true, attempted: 1, metrics: m})
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted *int  `json:"attempted"`
			Failed    *int  `json:"failed"`
			Metrics   map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			} `json:"metrics"`
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("result line: %v\n%s", err, line)
		}
		if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
			t.Errorf("result line lacks a key: %s", line)
		}
		specs := endToEnd
		if traced {
			specs = perLayer
		}
		if len(got.Metrics) != len(specs) {
			t.Errorf("result line has %d metrics, want %d", len(got.Metrics), len(specs))
		}
		for _, s := range specs {
			if v, ok := got.Metrics[s.Name]; !ok || v.Value == nil || v.Unit != s.Unit {
				t.Errorf("result line lacks %s in %s", s.Name, s.Unit)
			}
		}
	}
}
