package lib

import "sync/atomic"

// S's fields exercise the field rules; UseFields writes each of them.
type S struct {
	written  int          // never read: flagged
	testRead int          // read only by fields_test.go: flagged
	read     int          // read by UseFields
	Tagged   int          `json:"tagged"` // read by reflection: exempt
	Inner                 // embedded, never named again: exempt
	count    atomic.Int64 // never read: exempt as a sync/atomic type
	self     int          // read only to compute its own next value: flagged
}

// Inner is embedded in S; UseFields reads X through promotion.
type Inner struct{ X int }

// box's fields are written in a literal inside generic code; v is read
// through box[int], unread by nothing (flagged). Every use names an
// instance of the field, never the declared field itself.
type box[T any] struct{ v, unread T }

func newBox[T any](v T) box[T] { return box[T]{v: v, unread: v} }

// AppConfig is a config struct: the binary sets Set, nothing sets
// Unset (flagged).
type AppConfig struct {
	Set   int
	Unset int
}

// UseFields is called by the binary.
func UseFields(cfg AppConfig) int {
	s := S{written: 1, Tagged: 2, Inner: Inner{X: cfg.Set}, count: atomic.Int64{}}
	s.testRead = 3
	s.read++
	s.self = s.self*10 + s.read
	return s.read + s.X + newBox(cfg.Unset).v
}
