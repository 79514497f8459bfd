// Package sparql implements the query language front end of IDS: a
// SPARQL subset covering SELECT/WHERE basic graph patterns, FILTER
// expressions with UDF calls, PREFIX declarations, DISTINCT, ORDER BY,
// LIMIT and OFFSET, plus a SIMILAR(?x, <key|vector>, k) clause that
// exposes vector-store nearest-neighbour search as a joinable pattern.
// The paper's queries (reviewed-protein search, inhibitor retrieval,
// similarity/potency/affinity filters, docking calls) are all
// expressible in this subset.
package sparql

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF    tokenKind = iota
	tokIRI              // <...>
	tokPName            // prefix:local
	tokVar              // ?name
	tokString           // "..."
	tokNumber
	tokIdent // keyword or function name (may contain dots)
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokLBracket
	tokRBracket
	tokDot
	tokComma
	tokSemicolon
	tokStar
	tokEq
	tokNe
	tokLt
	tokLe
	tokGt
	tokGe
	tokAnd
	tokOr
	tokBang
	tokPlus
	tokMinus
	tokSlash
)

type token struct {
	kind tokenKind
	text string
	num  float64
	pos  int
}

func (t token) String() string {
	if t.kind == tokEOF {
		return "<eof>"
	}
	return fmt.Sprintf("%q", t.text)
}

type lexer struct {
	in  string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return &Error{
		Code:    ErrSyntax,
		Offset:  pos,
		Msg:     fmt.Sprintf(format, args...),
		lexical: true,
	}
}

func (l *lexer) next() (token, error) {
	// Skip whitespace and # comments.
	for l.pos < len(l.in) {
		c := l.in[l.pos]
		if c == '#' {
			for l.pos < len(l.in) && l.in[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		break
	}
	if l.pos >= len(l.in) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.in[l.pos]
	switch {
	case c == '{':
		l.pos++
		return token{kind: tokLBrace, text: "{", pos: start}, nil
	case c == '}':
		l.pos++
		return token{kind: tokRBrace, text: "}", pos: start}, nil
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '[':
		l.pos++
		return token{kind: tokLBracket, text: "[", pos: start}, nil
	case c == ']':
		l.pos++
		return token{kind: tokRBracket, text: "]", pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == ';':
		l.pos++
		return token{kind: tokSemicolon, text: ";", pos: start}, nil
	case c == '*':
		l.pos++
		return token{kind: tokStar, text: "*", pos: start}, nil
	case c == '+':
		l.pos++
		return token{kind: tokPlus, text: "+", pos: start}, nil
	case c == '/':
		l.pos++
		return token{kind: tokSlash, text: "/", pos: start}, nil
	case c == '=':
		l.pos++
		return token{kind: tokEq, text: "=", pos: start}, nil
	case c == '!':
		if l.peekAt(1) == '=' {
			l.pos += 2
			return token{kind: tokNe, text: "!=", pos: start}, nil
		}
		l.pos++
		return token{kind: tokBang, text: "!", pos: start}, nil
	case c == '<':
		// IRI or less-than.
		if end := strings.IndexByte(l.in[l.pos:], '>'); end > 0 && !strings.ContainsAny(l.in[l.pos:l.pos+end], " \t\n") {
			iri := l.in[l.pos+1 : l.pos+end]
			l.pos += end + 1
			return token{kind: tokIRI, text: iri, pos: start}, nil
		}
		if l.peekAt(1) == '=' {
			l.pos += 2
			return token{kind: tokLe, text: "<=", pos: start}, nil
		}
		l.pos++
		return token{kind: tokLt, text: "<", pos: start}, nil
	case c == '>':
		if l.peekAt(1) == '=' {
			l.pos += 2
			return token{kind: tokGe, text: ">=", pos: start}, nil
		}
		l.pos++
		return token{kind: tokGt, text: ">", pos: start}, nil
	case c == '&':
		if l.peekAt(1) == '&' {
			l.pos += 2
			return token{kind: tokAnd, text: "&&", pos: start}, nil
		}
		return token{}, l.errf(start, "stray '&'")
	case c == '|':
		if l.peekAt(1) == '|' {
			l.pos += 2
			return token{kind: tokOr, text: "||", pos: start}, nil
		}
		return token{}, l.errf(start, "stray '|'")
	case c == '?' || c == '$':
		l.pos++
		name := l.takeWhile(isNameChar)
		if name == "" {
			return token{}, l.errf(start, "empty variable name")
		}
		return token{kind: tokVar, text: name, pos: start}, nil
	case c == '"':
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.in) && l.in[l.pos] != '"' {
			ch := l.in[l.pos]
			if ch == '\\' && l.pos+1 < len(l.in) {
				l.pos++
				switch l.in[l.pos] {
				case 'n':
					ch = '\n'
				case 't':
					ch = '\t'
				case '\\':
					ch = '\\'
				case '"':
					ch = '"'
				default:
					ch = l.in[l.pos]
				}
			}
			sb.WriteByte(ch)
			l.pos++
		}
		if l.pos >= len(l.in) {
			return token{}, l.errf(start, "unterminated string")
		}
		l.pos++
		return token{kind: tokString, text: sb.String(), pos: start}, nil
	case c == '-':
		// "-3" / "-.5" are negative literals; a bare "-" is the
		// subtraction operator ("?v - 3").
		if n := l.peekAt(1); n >= '0' && n <= '9' || n == '.' {
			return l.number(start)
		}
		l.pos++
		return token{kind: tokMinus, text: "-", pos: start}, nil
	case c >= '0' && c <= '9':
		return l.number(start)
	case c == '.':
		// Dot terminator vs leading-dot number.
		if n := l.peekAt(1); n >= '0' && n <= '9' {
			return l.number(start)
		}
		l.pos++
		return token{kind: tokDot, text: ".", pos: start}, nil
	case isNameStart(rune(c)):
		name := l.takeWhile(func(r byte) bool { return isNameChar(r) || r == '.' || r == ':' })
		// A trailing dot is the statement terminator, not part of the
		// name ("?s <p> abc." style); split it back off.
		for strings.HasSuffix(name, ".") {
			name = name[:len(name)-1]
			l.pos--
		}
		if i := strings.IndexByte(name, ':'); i >= 0 && !strings.Contains(name, "(") {
			return token{kind: tokPName, text: name, pos: start}, nil
		}
		return token{kind: tokIdent, text: name, pos: start}, nil
	default:
		return token{}, l.errf(start, "unexpected character %q", c)
	}
}

func (l *lexer) number(start int) (token, error) {
	i := l.pos
	if l.in[i] == '-' {
		i++
	}
	seenDigit := false
	for i < len(l.in) && (l.in[i] >= '0' && l.in[i] <= '9') {
		i++
		seenDigit = true
	}
	if i < len(l.in) && l.in[i] == '.' {
		j := i + 1
		for j < len(l.in) && (l.in[j] >= '0' && l.in[j] <= '9') {
			j++
			seenDigit = true
		}
		if j > i+1 {
			i = j
		}
	}
	if i < len(l.in) && (l.in[i] == 'e' || l.in[i] == 'E') {
		j := i + 1
		if j < len(l.in) && (l.in[j] == '+' || l.in[j] == '-') {
			j++
		}
		k := j
		for k < len(l.in) && (l.in[k] >= '0' && l.in[k] <= '9') {
			k++
		}
		if k > j {
			i = k
		}
	}
	if !seenDigit {
		return token{}, l.errf(start, "malformed number")
	}
	text := l.in[l.pos:i]
	l.pos = i
	var f float64
	if _, err := fmt.Sscanf(text, "%g", &f); err != nil {
		return token{}, l.errf(start, "malformed number %q", text)
	}
	return token{kind: tokNumber, text: text, num: f, pos: start}, nil
}

func (l *lexer) peekAt(off int) byte {
	if l.pos+off < len(l.in) {
		return l.in[l.pos+off]
	}
	return 0
}

func (l *lexer) takeWhile(pred func(byte) bool) string {
	start := l.pos
	for l.pos < len(l.in) && pred(l.in[l.pos]) {
		l.pos++
	}
	return l.in[start:l.pos]
}

func isNameStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isNameChar(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_'
}
