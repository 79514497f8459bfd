package insights

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"ids/internal/obs"
)

// OTLP-JSON trace export (DESIGN.md §6): retained tail traces are
// converted to the OpenTelemetry OTLP/JSON wire shape and written to
// a file (JSON Lines, one ExportTraceServiceRequest per line) or
// POSTed to an http(s) collector endpoint — so traces outlive the
// in-process ring and join the caller's distributed trace via the
// propagated traceparent.
//
// Span identity is deterministic: span ids derive from fnv64(qid,
// span name), and the trace id is the ingested traceparent's when one
// was propagated (falling back to a qid-derived id), so re-exporting
// the same trace produces the same spans.

// Exporter writes OTLP-JSON traces to a file or HTTP endpoint.
type Exporter struct {
	mu       sync.Mutex
	f        *os.File
	endpoint string
	client   *http.Client
}

// NewExporter opens a trace exporter for dest: "" returns nil (export
// disabled), an http:// or https:// URL selects POST-per-trace, and
// anything else is an append-mode JSONL file path.
func NewExporter(dest string) (*Exporter, error) {
	if dest == "" {
		return nil, nil
	}
	if strings.HasPrefix(dest, "http://") || strings.HasPrefix(dest, "https://") {
		return &Exporter{endpoint: dest, client: &http.Client{Timeout: 5 * time.Second}}, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("insights: open trace export file: %w", err)
	}
	return &Exporter{f: f}, nil
}

// Export writes one retained trace. Errors are returned but the
// exporter stays usable (export is best-effort by design).
func (e *Exporter) Export(tr *obs.QueryTrace) error {
	if e == nil || tr == nil {
		return nil
	}
	payload, err := json.Marshal(OTLPFromTrace(tr))
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.f != nil {
		payload = append(payload, '\n')
		_, err := e.f.Write(payload)
		return err
	}
	resp, err := e.client.Post(e.endpoint, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("insights: trace export POST %s: %s", e.endpoint, resp.Status)
	}
	return nil
}

// Close flushes and closes a file-backed exporter.
func (e *Exporter) Close() error {
	if e == nil || e.f == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.f.Close()
}

// --- OTLP-JSON shapes (the subset of ExportTraceServiceRequest we
// emit; field names follow the proto3 JSON mapping) ---

type OTLPRequest struct {
	ResourceSpans []OTLPResourceSpans `json:"resourceSpans"`
}

type OTLPResourceSpans struct {
	Resource   OTLPResource     `json:"resource"`
	ScopeSpans []OTLPScopeSpans `json:"scopeSpans"`
}

type OTLPResource struct {
	Attributes []OTLPAttr `json:"attributes"`
}

type OTLPScopeSpans struct {
	Scope OTLPScope  `json:"scope"`
	Spans []OTLPSpan `json:"spans"`
}

type OTLPScope struct {
	Name string `json:"name"`
}

type OTLPSpan struct {
	TraceID      string     `json:"traceId"`
	SpanID       string     `json:"spanId"`
	ParentSpanID string     `json:"parentSpanId,omitempty"`
	Name         string     `json:"name"`
	Kind         int        `json:"kind"` // 1 = SPAN_KIND_INTERNAL, 2 = SERVER
	StartNano    string     `json:"startTimeUnixNano"`
	EndNano      string     `json:"endTimeUnixNano"`
	Attributes   []OTLPAttr `json:"attributes,omitempty"`
	Status       OTLPStatus `json:"status"`
}

type OTLPStatus struct {
	Code    int    `json:"code"` // 1 = OK, 2 = ERROR
	Message string `json:"message,omitempty"`
}

type OTLPAttr struct {
	Key   string    `json:"key"`
	Value OTLPValue `json:"value"`
}

type OTLPValue struct {
	Str *string `json:"stringValue,omitempty"`
	Int *string `json:"intValue,omitempty"` // proto3 JSON: int64 as string
}

func attrStr(k, v string) OTLPAttr { return OTLPAttr{Key: k, Value: OTLPValue{Str: &v}} }
func attrInt(k string, v int64) OTLPAttr {
	s := strconv.FormatInt(v, 10)
	return OTLPAttr{Key: k, Value: OTLPValue{Int: &s}}
}

// spanID derives a deterministic 8-byte span id from the qid and span
// name.
func spanID(qid, name string) string {
	h := fnv.New64a()
	h.Write([]byte(qid))
	h.Write([]byte{0})
	h.Write([]byte(name))
	var b [8]byte
	v := h.Sum64()
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
	return hex.EncodeToString(b[:])
}

// traceIDFor resolves the exported trace id: the propagated
// traceparent's when present, else a deterministic qid-derived one.
func traceIDFor(tr *obs.QueryTrace) (traceID, callerSpan string) {
	if tc, err := obs.ParseTraceparent(tr.TraceParent); err == nil {
		return hex.EncodeToString(tc.TraceID[:]), hex.EncodeToString(tc.SpanID[:])
	}
	h := fnv.New64a()
	h.Write([]byte(tr.ID))
	v := h.Sum64()
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
		b[8+i] = b[i] ^ 0xa5
	}
	return hex.EncodeToString(b[:]), ""
}

// OTLPFromTrace converts one QueryTrace into an OTLP-JSON request:
// a root "query" span (child of the caller's span when a traceparent
// was propagated), parse/plan/exec lifecycle children, and one span
// per executed operator under exec.
func OTLPFromTrace(tr *obs.QueryTrace) OTLPRequest {
	traceID, callerSpan := traceIDFor(tr)
	rootID := spanID(tr.ID, "query")
	start := tr.Start.UnixNano()
	nano := func(t int64) string { return strconv.FormatInt(t, 10) }
	secs := func(s float64) int64 { return int64(s * 1e9) }

	status := OTLPStatus{Code: 1}
	if tr.Status == "error" {
		status = OTLPStatus{Code: 2, Message: tr.Error}
	}
	rootAttrs := []OTLPAttr{
		attrStr("ids.qid", tr.ID),
		attrInt("ids.rows", int64(tr.Rows)),
		attrInt("ids.ranks", int64(tr.Ranks)),
	}
	if tr.Fingerprint != "" {
		rootAttrs = append(rootAttrs, attrStr("ids.fingerprint", tr.Fingerprint))
	}
	if tr.TailReason != "" {
		rootAttrs = append(rootAttrs, attrStr("ids.tail_reason", tr.TailReason))
	}
	spans := []OTLPSpan{{
		TraceID: traceID, SpanID: rootID, ParentSpanID: callerSpan,
		Name: "query", Kind: 2,
		StartNano: nano(start), EndNano: nano(start + secs(tr.WallSeconds)),
		Attributes: rootAttrs, Status: status,
	}}

	// Lifecycle children laid out sequentially: parse, plan, exec.
	cursor := start
	for _, ph := range []struct {
		name string
		dur  float64
	}{{"parse", tr.ParseSeconds}, {"plan", tr.PlanSeconds}, {"exec", tr.ExecSeconds}} {
		end := cursor + secs(ph.dur)
		spans = append(spans, OTLPSpan{
			TraceID: traceID, SpanID: spanID(tr.ID, ph.name), ParentSpanID: rootID,
			Name: ph.name, Kind: 1,
			StartNano: nano(cursor), EndNano: nano(end),
			Status: OTLPStatus{Code: 1},
		})
		cursor = end
	}

	// Operator spans under exec. Per-op start offsets are not recorded
	// (ranks interleave), so ops are laid out sequentially by slowest-
	// rank wall time inside the exec window.
	execID := spanID(tr.ID, "exec")
	opStart := start + secs(tr.ParseSeconds+tr.PlanSeconds)
	for i, op := range tr.Ops {
		name := op.Op
		if op.Label != "" {
			name = op.Op + " " + op.Label
		}
		end := opStart + secs(op.WallMax)
		spans = append(spans, OTLPSpan{
			TraceID: traceID, SpanID: spanID(tr.ID, fmt.Sprintf("op%d:%s", i, name)),
			ParentSpanID: execID, Name: name, Kind: 1,
			StartNano: nano(opStart), EndNano: nano(end),
			Attributes: []OTLPAttr{
				attrInt("ids.rows_in", int64(op.RowsIn)),
				attrInt("ids.rows_out", int64(op.RowsOut)),
				attrInt("ids.alloc_bytes", op.AllocBytes),
				attrInt("ids.depth", int64(op.Depth)),
			},
			Status: OTLPStatus{Code: 1},
		})
		opStart = end
	}

	return OTLPRequest{ResourceSpans: []OTLPResourceSpans{{
		Resource: OTLPResource{Attributes: []OTLPAttr{
			attrStr("service.name", "ids"),
		}},
		ScopeSpans: []OTLPScopeSpans{{
			Scope: OTLPScope{Name: "ids/internal/obs/insights"},
			Spans: spans,
		}},
	}}}
}
