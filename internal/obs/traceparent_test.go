package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatal("fresh trace context invalid")
	}
	s := tc.String()
	if len(s) != 55 || !strings.HasPrefix(s, "00-") {
		t.Fatalf("bad traceparent rendering %q", s)
	}
	got, err := ParseTraceparent(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	if got != tc {
		t.Fatalf("round trip: %v -> %q -> %v", tc, s, got)
	}
}

func TestTraceparentParse(t *testing.T) {
	good := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, err := ParseTraceparent(good)
	if err != nil {
		t.Fatalf("parse canonical example: %v", err)
	}
	if tc.Flags != 0x01 {
		t.Fatalf("flags = %02x, want 01", tc.Flags)
	}
	if tc.String() != good {
		t.Fatalf("re-render %q != %q", tc.String(), good)
	}
	// Whitespace tolerated.
	if _, err := ParseTraceparent("  " + good + " "); err != nil {
		t.Fatalf("trimmed parse: %v", err)
	}
	bad := []string{
		"",
		"garbage",
		"00-abc-def-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff forbidden
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
		"00-4bf92f3577b34da6a3ce929d0e0e4xyz-00f067aa0ba902b7-01", // non-hex
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
	// Future versions with the 00 layout parse (forward compat).
	if _, err := ParseTraceparent("cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-what-ever"); err != nil {
		t.Errorf("future-version parse: %v", err)
	}
}

func TestTraceContextChildAndUniqueness(t *testing.T) {
	if a, b := NewTraceContext(), NewTraceContext(); a.SpanID == b.SpanID {
		t.Fatal("two fresh contexts share a span id")
	}
	seen := map[[16]byte]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceContext().TraceID
		if seen[id] {
			t.Fatalf("duplicate trace id after %d draws", i)
		}
		seen[id] = true
	}
}

func TestTraceContextCtxPlumbing(t *testing.T) {
	if _, ok := TraceContextFrom(context.Background()); ok {
		t.Fatal("empty ctx claims a trace context")
	}
	tc := NewTraceContext()
	ctx := WithTraceContext(context.Background(), tc)
	got, ok := TraceContextFrom(ctx)
	if !ok || got != tc {
		t.Fatalf("ctx round trip: got %v ok=%v", got, ok)
	}
}
