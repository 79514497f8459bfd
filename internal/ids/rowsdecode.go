package ids

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"sync"
	"unicode/utf8"
)

// The client half of the /query wire format. unmarshalQueryResponse
// scans the "rows" member as appendRowsJSON writes it — [[cell,…],…],
// no whitespace, each cell a string whose only escapes are \", \\ and
// \u00XX for a control byte — and leaves the envelope to encoding/json.
// Any byte the writer does not produce sends the whole body to
// json.Unmarshal, so the result, error included, is always its result.
// Each row is one string its cells are substrings of, so a caller that
// keeps a few cells of a large answer pins their rows, not the response.

// rowsScratch is one decode's reusable state.
type rowsScratch struct {
	text    []byte   // the row being decoded, its cells unescaped end to end
	ends    []int    // the end in text of each of that row's cells
	cells   []string // every cell decoded so far
	rowEnds []int    // the end in cells of each row decoded so far
	env     []byte   // the body with its rows value replaced by []
}

var rowsScratchPool = sync.Pool{New: func() any { return new(rowsScratch) }}

// unmarshalQueryResponse decodes a /query body into out, which must be
// the zero QueryResponse, exactly as json.Unmarshal(body, out) would,
// and reports whether the rows took the fast path.
func unmarshalQueryResponse(body []byte, out *QueryResponse) (fast bool, err error) {
	sc := rowsScratchPool.Get().(*rowsScratch)
	defer func() {
		clear(sc.cells) // a pooled scratch must not pin decoded rows
		sc.cells, sc.rowEnds = sc.cells[:0], sc.rowEnds[:0]
		rowsScratchPool.Put(sc)
	}()
	if lo, hi := sc.scan(body); lo > 0 {
		// json.Unmarshal checks all of its input before decoding any of
		// it, so the rows bytes must not reach it.
		sc.env = append(append(append(sc.env[:0], body[:lo]...), "[]"...), body[hi:]...)
		if json.Unmarshal(sc.env, out) == nil {
			out.Rows = sc.carve()
			return true, nil
		}
		*out = QueryResponse{} // the envelope is at fault: say how, as json.Unmarshal does
	}
	return false, json.Unmarshal(body, out)
}

// scan walks the top-level object of b, decoding the value of its one
// "rows" member into sc and skipping the others, and returns where that
// value starts and ends; lo is 0 if b is not in the server's format.
// Keys must be plain ASCII, so no other key names Rows by an escape or
// by json's case folding.
func (sc *rowsScratch) scan(b []byte) (lo, hi int) {
	for i := 1; i < len(b) && b[0] == '{' && b[i] == '"'; {
		k := i + 1
		for ; k < len(b) && b[k] != '"'; k++ {
			if c := b[k]; c < 0x20 || c >= utf8.RuneSelf || c == '\\' {
				return 0, 0
			}
		}
		if k+1 >= len(b) || b[k+1] != ':' {
			return 0, 0
		}
		key := b[i+1 : k]
		if i = k + 2; bytes.EqualFold(key, []byte("rows")) {
			if lo > 0 || string(key) != "rows" {
				return 0, 0
			}
			lo, hi = i, sc.decodeRows(b, i)
			i = hi
		} else {
			i = skipValue(b, i)
		}
		switch {
		case i < 0 || i >= len(b):
			return 0, 0
		case b[i] == ',':
			i++
		case b[i] == '}':
			return lo, hi // what follows is json.Unmarshal's to check
		default:
			return 0, 0
		}
	}
	return 0, 0
}

// decodeRows decodes the array of arrays of strings at b[i:] into sc
// and returns the index just past it, or -1.
func (sc *rowsScratch) decodeRows(b []byte, i int) int {
	return scanArray(b, i, func(i int) int {
		sc.text, sc.ends = sc.text[:0], sc.ends[:0]
		if i = scanArray(b, i, func(i int) int {
			sc.text, i = unquoteCell(sc.text, b, i)
			sc.ends = append(sc.ends, len(sc.text))
			return i
		}); i < 0 {
			return -1
		}
		row, start := string(sc.text), 0
		for _, end := range sc.ends {
			sc.cells = append(sc.cells, row[start:end])
			start = end
		}
		sc.rowEnds = append(sc.rowEnds, len(sc.cells))
		return i
	})
}

// scanArray calls elem at each element of the JSON array at b[i:] —
// elem returns the index just past the element, or -1 — and returns the
// index just past the array, or -1.
func scanArray(b []byte, i int, elem func(int) int) int {
	if i+1 >= len(b) || b[i] != '[' {
		return -1
	}
	if i++; b[i] == ']' {
		return i + 1
	}
	for {
		if i = elem(i); i < 0 || i >= len(b) {
			return -1
		}
		switch b[i] {
		case ']':
			return i + 1
		case ',':
			i++
		default:
			return -1
		}
	}
}

// plain8 reports whether no byte of w is below 0x20, above 0x7f, '"' or
// '\\'. (The lowest byte below n sets its high bit in w - n*lsb; the
// lowest zero byte does in w - lsb.)
func plain8(w uint64) bool {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	return (w|(w-0x20*lsb)|((w^'"'*lsb)-lsb)|((w^'\\'*lsb)-lsb))&msb == 0
}

// unquoteCell appends the JSON string at b[i:], unescaped, to dst and
// returns the index just past it, or -1 for anything appendCell does not
// write: another escape, a raw control byte, invalid UTF-8.
func unquoteCell(dst, b []byte, i int) ([]byte, int) {
	if i >= len(b) || b[i] != '"' {
		return dst, -1
	}
	i++
	for start := i; i < len(b); {
		if i+8 <= len(b) && plain8(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
			continue
		}
		c := b[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return dst, -1
			}
			i += n
			continue
		}
		if c >= 0x20 && c != '"' && c != '\\' {
			i++
			continue
		}
		dst = append(dst, b[start:i]...)
		switch h := -1; {
		case c == '"':
			return dst, i + 1
		case c == '\\' && i+1 < len(b) && (b[i+1] == '"' || b[i+1] == '\\'):
			dst = append(dst, b[i+1])
			i += 2
		case c == '\\' && i+5 < len(b) && string(b[i+1:i+4]) == "u00" && (b[i+4] == '0' || b[i+4] == '1'):
			if h = strings.IndexByte("0123456789abcdef", b[i+5]); h < 0 {
				return dst, -1
			}
			dst = append(dst, (b[i+4]-'0')<<4|byte(h))
			i += 6
		default:
			return dst, -1
		}
		start = i
	}
	return dst, -1
}

// skipValue returns the index just past the JSON value at b[i:], or -1.
// It finds only where a valid value ends — strings skipped escape by
// escape, brackets counted, a scalar ended by the next , } or ] — and
// leaves checking the value to json.Unmarshal of the envelope.
func skipValue(b []byte, i int) int {
	for depth := 0; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
			continue
		case '}', ']':
			if depth == 0 {
				return i
			}
			depth--
		case ',':
			if depth == 0 {
				return i
			}
			continue
		default:
			continue
		}
		if depth == 0 && i < len(b) {
			return i + 1
		}
	}
	return -1
}

// carve returns the decoded rows, their cells copied out of the pooled
// scratch into one exactly sized []string.
func (sc *rowsScratch) carve() [][]string {
	cells := make([]string, len(sc.cells))
	copy(cells, sc.cells)
	rows, start := make([][]string, len(sc.rowEnds)), 0
	for r, end := range sc.rowEnds {
		rows[r] = cells[start:end:end]
		start = end
	}
	return rows
}
