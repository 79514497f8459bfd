package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// This file is the structured-logging half of the observability layer:
// a slog-based logger factory (text or JSON handler, level from a flag
// string) and the per-query correlation ID that ties a log line to its
// trace. The qid is minted once at admission, carried through
// context.Context, and stamped onto every log record by the qid-aware
// handler — so `grep qid=q000042 server.log` reconstructs one query's
// path through admission, planning, execution, and the WAL.

// ctxKey keys obs values in a context.Context.
type ctxKey int

const qidKey ctxKey = iota

// WithQID returns ctx carrying the query correlation ID.
func WithQID(ctx context.Context, qid string) context.Context {
	return context.WithValue(ctx, qidKey, qid)
}

// QID returns the correlation ID carried by ctx ("" when absent).
func QID(ctx context.Context) string {
	if v, ok := ctx.Value(qidKey).(string); ok {
		return v
	}
	return ""
}

// NewQID mints a process-unique query correlation ID. It is the same
// sequence as trace IDs: the qid IS the trace ID, so the log stream,
// GET /traces?id=<qid>, and the query response all share one handle.
func NewQID() string { return NewTraceID() }

// qidHandler decorates an slog.Handler, stamping the context's qid
// onto every record so call sites never thread it by hand.
type qidHandler struct {
	slog.Handler
}

func (h qidHandler) Handle(ctx context.Context, r slog.Record) error {
	if qid := QID(ctx); qid != "" {
		r.AddAttrs(slog.String("qid", qid))
	}
	if tc, ok := TraceContextFrom(ctx); ok {
		r.AddAttrs(slog.String("traceparent", tc.String()))
	}
	return h.Handler.Handle(ctx, r)
}

func (h qidHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return qidHandler{h.Handler.WithAttrs(attrs)}
}

func (h qidHandler) WithGroup(name string) slog.Handler {
	return qidHandler{h.Handler.WithGroup(name)}
}

// ParseLevel parses a -log-level flag value (debug|info|warn|error).
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds the process logger: format is "text" or "json" (the
// -log-format flag), level a ParseLevel string. The returned logger is
// qid-aware: any log call whose context carries WithQID gets a qid
// attribute automatically.
func NewLogger(w io.Writer, format string, level slog.Level) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "json":
		h = slog.NewJSONHandler(w, opts)
	case "text", "":
		h = slog.NewTextHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
	}
	return slog.New(qidHandler{h}), nil
}

// nopHandler drops every record (the default when no logger is wired).
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nop = slog.New(nopHandler{})

// NopLogger returns a logger that discards everything (and reports
// every level disabled, so instrumented hot paths pay only the
// Enabled check).
func NopLogger() *slog.Logger { return nop }

// OrNop returns l, or the nop logger when l is nil — the nil-safety
// idiom for optional logger fields.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nop
	}
	return l
}
