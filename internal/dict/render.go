package dict

import (
	"strconv"
	"unicode/utf8"
)

// Term rendering. A term has one display form, its N-Triples syntax:
// <iri>, _:label, "value" or "value"^^<datatype>, the value quoted as
// strconv.Quote quotes it. AppendString appends that form; AppendJSON
// appends the JSON string literal that decodes to it, which is what a
// query response carries per cell — so the serving path writes a cell
// from its dictionary ID without building the string or escaping it a
// second time.

// plain reports whether s needs no escaping in either form: printable
// ASCII without '"' or '\\'.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// AppendString appends the term's display form to dst.
func (t Term) AppendString(dst []byte) []byte { return t.appendForm(dst, false) }

// AppendJSON appends the JSON string literal, quotes included, that
// decodes to the term's display form. Bytes that are not valid UTF-8
// (possible only in an IRI or a label; a literal's are already escaped
// by the quoting) decode to U+FFFD, as encoding/json would have them.
func (t Term) AppendJSON(dst []byte) []byte {
	dst = append(dst, '"')
	dst = t.appendForm(dst, true)
	return append(dst, '"')
}

// appendForm appends the display form, raw or (js) as the inside of a
// JSON string.
func (t Term) appendForm(dst []byte, js bool) []byte {
	switch t.Kind {
	case IRI:
		dst = append(dst, '<')
		dst = appendText(dst, t.Value, js)
		return append(dst, '>')
	case Blank:
		dst = append(dst, "_:"...)
		return appendText(dst, t.Value, js)
	}
	switch {
	case !js:
		dst = strconv.AppendQuote(dst, t.Value)
	case plain(t.Value):
		// A plain value quotes to itself between two quotes.
		dst = append(dst, `\"`...)
		dst = append(dst, t.Value...)
		dst = append(dst, `\"`...)
	default:
		// Quoting leaves printable, valid UTF-8 only, so its quotes and
		// backslashes are all JSON still has to escape.
		var buf [128]byte
		for _, c := range strconv.AppendQuote(buf[:0], t.Value) {
			if c == '"' || c == '\\' {
				dst = append(dst, '\\')
			}
			dst = append(dst, c)
		}
	}
	if t.Datatype != "" {
		dst = append(dst, "^^<"...)
		dst = appendText(dst, t.Datatype, js)
		dst = append(dst, '>')
	}
	return dst
}

// appendText appends text the display form carries verbatim (an IRI, a
// label).
func appendText(dst []byte, s string, js bool) []byte {
	if !js || plain(s) {
		return append(dst, s...)
	}
	return appendJSONEscaped(dst, s)
}

// AppendJSONString appends s as a JSON string literal, quotes included.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	dst = appendText(dst, s, true)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// appendJSONEscaped appends s as the inside of a JSON string: '"', '\\'
// and control bytes escaped, invalid UTF-8 replaced by U+FFFD, all else
// verbatim (JSON needs no more; encoding/json's extra HTML escapes
// decode to the same text).
func appendJSONEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
			i++
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(dst, "\ufffd"...)
			} else {
				dst = append(dst, s[i:i+size]...)
			}
			i += size
		}
	}
	return dst
}
