package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// W3C Trace Context (traceparent) support: the cross-process half of
// query correlation. The qid stays the human-sized local handle
// (q000042 in logs, /traces, responses); the TraceContext is the wire
// identity that survives process boundaries — ingested from the
// caller's `traceparent` header, minted fresh when absent, echoed in
// the response, stamped on every log record, and kept on the stored
// trace, so one logical request remains one trace across a brokered
// federation of engines.

// TraceContext is a parsed traceparent: 16-byte trace id, 8-byte span
// id (the *caller's* span on ingest — our spans become its children),
// and the trace flags byte (bit 0 = sampled).
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// Valid reports whether the context carries a usable identity: the
// spec forbids all-zero trace and span ids.
func (tc TraceContext) Valid() bool {
	return tc.TraceID != [16]byte{} && tc.SpanID != [8]byte{}
}

// String renders the canonical version-00 traceparent header value.
func (tc TraceContext) String() string {
	return fmt.Sprintf("00-%s-%s-%02x",
		hex.EncodeToString(tc.TraceID[:]), hex.EncodeToString(tc.SpanID[:]), tc.Flags)
}

// ParseTraceparent parses a version-00 traceparent header value. Per
// spec, unknown versions with the version-00 field layout still parse
// (forward compatibility); malformed or all-zero ids are errors.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return tc, fmt.Errorf("obs: malformed traceparent %q", s)
	}
	ver, traceID, spanID, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || ver == "ff" {
		return tc, fmt.Errorf("obs: bad traceparent version %q", ver)
	}
	if ver == "00" && len(parts) != 4 {
		return tc, fmt.Errorf("obs: malformed traceparent %q", s)
	}
	if len(traceID) != 32 || len(spanID) != 16 || len(flags) != 2 {
		return tc, fmt.Errorf("obs: malformed traceparent %q", s)
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(traceID)); err != nil {
		return tc, fmt.Errorf("obs: bad traceparent trace-id: %w", err)
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(spanID)); err != nil {
		return tc, fmt.Errorf("obs: bad traceparent parent-id: %w", err)
	}
	fb, err := hex.DecodeString(flags)
	if err != nil {
		return tc, fmt.Errorf("obs: bad traceparent flags: %w", err)
	}
	tc.Flags = fb[0]
	if !tc.Valid() {
		return tc, fmt.Errorf("obs: all-zero traceparent %q", s)
	}
	return tc, nil
}

// idState seeds span/trace id generation: process-unique at init, then
// advanced per id with a splitmix64 step, so ids are unique without a
// lock or syscall on the hot path.
var idState atomic.Uint64

func init() {
	idState.Store(uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32 ^ 0x9e3779b97f4a7c15)
}

// nextID returns the next pseudo-random 64-bit id (splitmix64 output).
func nextID() uint64 {
	z := idState.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // all-zero ids are invalid per spec
	}
	return z
}

// NewTraceContext mints a fresh sampled trace: new trace id, new root
// span id.
func NewTraceContext() TraceContext {
	var tc TraceContext
	binary.BigEndian.PutUint64(tc.TraceID[:8], nextID())
	binary.BigEndian.PutUint64(tc.TraceID[8:], nextID())
	binary.BigEndian.PutUint64(tc.SpanID[:], nextID())
	tc.Flags = 0x01
	return tc
}

const traceParentKey ctxKey = 1

// WithTraceContext returns ctx carrying the query's trace context.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, traceParentKey, tc)
}

// TraceContextFrom returns the trace context carried by ctx.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceParentKey).(TraceContext)
	return tc, ok
}
