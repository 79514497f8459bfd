package sparql

import "fmt"

// ErrCode is a stable machine-readable classification of a front-end
// error. Downstream consumers (the conformance taxonomy, servers that
// map errors to HTTP payloads) branch on codes, never on message text.
type ErrCode string

// Error codes.
const (
	// ErrSyntax marks malformed input: the query does not belong to
	// any SPARQL dialect this parser could ever accept.
	ErrSyntax ErrCode = "syntax"
	// ErrUnsupported marks well-formed W3C SPARQL using a feature this
	// subset deliberately does not implement yet. Feature names the
	// construct (e.g. "minus", "property-path", "subquery").
	ErrUnsupported ErrCode = "unsupported-feature"
)

// Error is the structured error type of the sparql package. Every
// error returned by Parse and ParseUpdate is (or wraps) an *Error, so
// callers can classify failures with errors.As and never need to
// match message strings.
type Error struct {
	Code ErrCode
	// Feature is the unsupported construct when Code is
	// ErrUnsupported ("minus", "subquery", ...), empty otherwise.
	Feature string
	// Offset is the byte offset into the query text nearest the
	// problem.
	Offset int
	// Msg is the human-readable description (without the offset
	// prefix).
	Msg string
	// lexical records whether the error came from the lexer ("at
	// offset") or the parser ("near offset"); message wording only.
	lexical bool
}

func (e *Error) Error() string {
	where := "near"
	if e.lexical {
		where = "at"
	}
	return fmt.Sprintf("sparql: %s offset %d: %s", where, e.Offset, e.Msg)
}
