package ids

import (
	"net/http"
	"strconv"

	"ids/internal/obs"
)

// Serving layer of the workload observatory (DESIGN.md §6): the
// /insights endpoint and the bounded fingerprint metric export. The
// aggregation itself lives in the engine (internal/obs/insights) so
// embedded callers get it without HTTP.

// handleInsights serves the workload observatory (GET /insights): the
// top-k fingerprint table with rolling latency/allocation quantiles
// and tail-retention counts, plus observatory totals.
// ?top=N limits the fingerprint rows. Flight-recorder captures are
// joined in by fingerprint, so a hot shape links straight to its
// breach evidence.
func (s *Server) handleInsights(w http.ResponseWriter, r *http.Request) {
	snap := s.Engine.Insights().Snapshot()
	if top, err := strconv.Atoi(r.URL.Query().Get("top")); err == nil && top > 0 && top < len(snap.Fingerprints) {
		snap.Fingerprints = snap.Fingerprints[:top]
	}
	// Join breach captures onto their shapes: the trace index marks
	// every query whose flight record is still kept.
	byFP := map[string][]string{}
	for _, e := range s.ring.Index() {
		if e.Capture != "" && e.Fingerprint != "" {
			byFP[e.Fingerprint] = append(byFP[e.Fingerprint], e.ID)
		}
	}
	for i := range snap.Fingerprints {
		snap.Fingerprints[i].FlightRecords = byFP[snap.Fingerprints[i].Fingerprint]
	}
	writeJSON(w, http.StatusOK, snap)
}

// fingerprintSeries bounds how many fingerprints /metrics exports as
// labelled series (label-cardinality guard).
const fingerprintSeries = 10

// registerFingerprintMetrics exports the observatory's top shapes as
// labelled Prometheus series, refreshed at scrape time. The row count
// is bounded by fingerprintSeries: a shape that leaves the top-k stops
// updating but its last-seen series remains, which Prometheus handles
// as a stale counter.
func (s *Server) registerFingerprintMetrics(reg *obs.Registry) {
	reg.Describe("ids_fingerprint_queries_total", "Queries observed per workload fingerprint (top-k only).")
	reg.Describe("ids_fingerprint_errors_total", "Errors observed per workload fingerprint (top-k only).")
	reg.Describe("ids_fingerprint_alloc_bytes_total", "Bytes attributed per workload fingerprint (top-k only).")
	reg.Describe("ids_fingerprint_latency_p99_seconds", "Rolling p99 latency per workload fingerprint (top-k only).")
	reg.AddCollector(func(r *obs.Registry) {
		for _, row := range s.Engine.Insights().TopK(fingerprintSeries) {
			r.Counter("ids_fingerprint_queries_total", "fp", row.Fingerprint).Set(float64(row.Count))
			r.Counter("ids_fingerprint_errors_total", "fp", row.Fingerprint).Set(float64(row.Errors))
			r.Counter("ids_fingerprint_alloc_bytes_total", "fp", row.Fingerprint).Set(float64(row.AllocTotal))
			r.Gauge("ids_fingerprint_latency_p99_seconds", "fp", row.Fingerprint).Set(row.LatencyP99)
		}
	})
}
