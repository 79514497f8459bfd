package ids

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"ids/internal/obs"
	"ids/internal/obs/insights"
	"ids/internal/udf"
)

// Client is the Datastore Client: it submits queries and updates,
// imports user code, and fetches statistics from a running IDS
// endpoint.
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient targets the given base URL (e.g. "http://127.0.0.1:8080").
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: &http.Client{Timeout: 120 * time.Second}}
}

// OverloadedError reports a 429 from the server's admission
// controller; RetryAfter carries the server's backoff hint.
type OverloadedError struct {
	Message    string
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("ids client: server overloaded (retry after %s): %s", e.RetryAfter, e.Message)
}

func (c *Client) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

func (c *Client) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// do sends req and reads a 200 answer into out: an io.Writer gets the
// raw body, a *QueryResponse goes through unmarshalQueryResponse,
// anything else is decoded from JSON. Any other status is an
// error carrying the server's {"error": ...} message, an
// *OverloadedError for a 429.
func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode == http.StatusTooManyRequests {
			ra := time.Second
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
				ra = time.Duration(secs) * time.Second
			}
			return &OverloadedError{Message: e.Error, RetryAfter: ra}
		}
		if e.Error != "" {
			return fmt.Errorf("ids client: %s", e.Error)
		}
		return fmt.Errorf("ids client: %s returned %s", req.URL.Path, resp.Status)
	}
	if w, ok := out.(io.Writer); ok {
		_, err := io.Copy(w, resp.Body)
		return err
	}
	// Read the whole body into a reused buffer, then unmarshal: a
	// json.Decoder on the stream re-grows its own buffer to the size of
	// the body on every call, megabytes for a large answer.
	buf := bodyBufPool.Get().(*bytes.Buffer)
	defer bodyBufPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if qr, ok := out.(*QueryResponse); ok {
		_, err := unmarshalQueryResponse(buf.Bytes(), qr)
		return err
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// bodyBufPool recycles do's response-body buffers.
var bodyBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Query runs a query remotely.
func (c *Client) Query(q string) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.post("/query", QueryRequest{Query: q}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Insights fetches the workload observatory snapshot (GET /insights):
// per-fingerprint heavy-hitter statistics plus observatory totals.
// top > 0 limits the fingerprint rows.
func (c *Client) Insights(top int) (*insights.Snapshot, error) {
	path := "/insights"
	if top > 0 {
		path += "?top=" + strconv.Itoa(top)
	}
	var out insights.Snapshot
	if err := c.get(path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// QueryExplain runs a query remotely with span tracing; the response
// carries the trace and its ID.
func (c *Client) QueryExplain(q string) (*QueryResponse, error) {
	var out QueryResponse
	if err := c.post("/query", QueryRequest{Query: q, Explain: true}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TraceIndex is the GET /traces answer: one row per stored trace,
// newest first, and the slow-query threshold in force.
type TraceIndex struct {
	ThresholdSeconds float64               `json:"threshold_seconds"`
	Traces           []obs.TraceIndexEntry `json:"traces"`
}

// Traces fetches the index of stored traces (GET /traces).
func (c *Client) Traces() (*TraceIndex, error) {
	var out TraceIndex
	if err := c.get("/traces", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Trace fetches a stored query trace by ID (GET /traces?id=).
func (c *Client) Trace(id string) (*obs.QueryTrace, error) {
	var out obs.QueryTrace
	if err := c.get("/traces?id="+url.QueryEscape(id), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// TraceArtifact streams the profile the flight recorder kept for a
// query into w: "heap" is pprof protobuf for `go tool pprof`,
// "goroutine" is text.
func (c *Client) TraceArtifact(id, artifact string, w io.Writer) error {
	return c.get("/traces?id="+url.QueryEscape(id)+"&artifact="+url.QueryEscape(artifact), w)
}

// MetricsText fetches the text exposition of the server's metrics
// registry. It negotiates OpenMetrics so histogram buckets carry their
// trace-ID exemplars (plain scrapes of /metrics get exemplar-free
// 0.0.4, which classic Prometheus parsers require).
func (c *Client) MetricsText() (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Accept", "application/openmetrics-text")
	var text strings.Builder
	err = c.do(req, &text)
	return text.String(), err
}

// Update applies an INSERT DATA / DELETE DATA statement remotely.
func (c *Client) Update(u string) (*UpdateResult, error) {
	var out UpdateResult
	if err := c.post("/update", UpdateRequest{Update: u}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Checkpoint forces the server to checkpoint its durable state now.
func (c *Client) Checkpoint() (*CheckpointInfo, error) {
	var out CheckpointInfo
	if err := c.post("/checkpoint", struct{}{}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// LoadModule imports an IDscript module (cached on the server).
func (c *Client) LoadModule(name, source string) error {
	var out ModuleResponse
	return c.post("/module", ModuleRequest{Name: name, Source: source}, &out)
}

// ReloadModule force-reloads a module on the server.
func (c *Client) ReloadModule(name, source string) error {
	var out ModuleResponse
	return c.post("/module", ModuleRequest{Name: name, Source: source, Reload: true}, &out)
}

// Profile fetches the merged per-UDF profile.
func (c *Client) Profile() (map[string]udf.Stats, error) {
	var out map[string]udf.Stats
	if err := c.get("/profile", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Snapshot streams the remote graph's binary snapshot into w.
func (c *Client) Snapshot(w io.Writer) error {
	return c.get("/snapshot", w)
}

// Ready reports whether the endpoint is serving queries (GET /readyz
// is 200); false while the instance is starting, replaying its WAL, or
// draining. The second return is the reported lifecycle state.
func (c *Client) Ready() (bool, string) {
	resp, err := c.HTTP.Get(c.Base + "/readyz")
	if err != nil {
		return false, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return resp.StatusCode == http.StatusOK, strings.TrimSpace(string(b))
}
