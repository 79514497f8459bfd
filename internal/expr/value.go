// Package expr implements the typed expression trees evaluated by IDS
// FILTER operations: variables, constants, comparisons, arithmetic,
// boolean connectives and UDF calls, plus the profiling-driven
// conjunction reordering of paper §2.4.3.
package expr

import (
	"fmt"
	"strconv"

	"ids/internal/dict"
)

// Kind tags a runtime value.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindID        // a dictionary term reference
	KindFloat
	KindString
	KindBool
)

// Value is one runtime value flowing through expression evaluation and
// solution tables.
type Value struct {
	Kind Kind
	ID   dict.ID
	Num  float64
	Str  string
	Bool bool
}

// Null is the absent value.
var Null = Value{Kind: KindNull}

// IDVal wraps a dictionary ID.
func IDVal(id dict.ID) Value { return Value{Kind: KindID, ID: id} }

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, Num: f} }

// String wraps a string.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Truthy reports the effective boolean value (SPARQL EBV-style):
// booleans as-is, numbers != 0, non-empty strings, non-null IDs.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindBool:
		return v.Bool
	case KindFloat:
		return v.Num != 0
	case KindString:
		return v.Str != ""
	case KindID:
		return v.ID != dict.None
	default:
		return false
	}
}

func (v Value) String() string {
	switch v.Kind {
	case KindID:
		return fmt.Sprintf("id:%d", v.ID)
	case KindFloat:
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.Str)
	case KindBool:
		return strconv.FormatBool(v.Bool)
	default:
		return "null"
	}
}

// Resolver decodes dictionary IDs into concrete values so expressions
// can compare graph terms with numbers and strings. Literal terms with
// numeric lexical forms resolve to floats; other literals resolve to
// strings; IRIs and blanks resolve to their text form.
type Resolver interface {
	ResolveID(id dict.ID) Value
}

// DictResolver adapts a *dict.Dict to the Resolver interface.
type DictResolver struct{ Dict *dict.Dict }

// ResolveID implements Resolver.
func (r DictResolver) ResolveID(id dict.ID) Value {
	t, ok := r.Dict.Decode(id)
	if !ok {
		return Null
	}
	if t.Kind == dict.Literal {
		if f, err := strconv.ParseFloat(t.Value, 64); err == nil {
			return Float(f)
		}
		return String(t.Value)
	}
	return String(t.Value)
}

// resolve concretizes an ID value using the resolver, leaving other
// kinds untouched.
func resolve(v Value, r Resolver) Value {
	if v.Kind == KindID && r != nil {
		return r.ResolveID(v.ID)
	}
	return v
}

// ResolveArgs concretizes the KindID elements of a UDF argument frame
// in place — the step a Callee performs before the function body
// runs. It reports whether every ID was known: an ID that resolves to
// Null now may be assigned by a later update, so a result computed from
// it must not be remembered under that ID. A nil resolver leaves IDs
// as they are.
func ResolveArgs(args []Value, r Resolver) (known bool) {
	known = true
	if r == nil {
		return known
	}
	for i, a := range args {
		if a.Kind == KindID {
			args[i] = r.ResolveID(a.ID)
			known = known && !args[i].IsNull()
		}
	}
	return known
}

// Compare returns -1, 0, +1 comparing a and b after resolution, and
// false when the kinds are incomparable.
func Compare(a, b Value, r Resolver) (int, bool) {
	// One term is equal to itself without decoding it. Two different
	// terms compare by value, never by ID: IDs follow insertion order.
	if a.Kind == KindID && b.Kind == KindID && a.ID == b.ID {
		return 0, true
	}
	a = resolve(a, r)
	b = resolve(b, r)
	switch {
	case a.Kind == KindFloat && b.Kind == KindFloat:
		switch {
		case a.Num < b.Num:
			return -1, true
		case a.Num > b.Num:
			return 1, true
		default:
			return 0, true
		}
	case a.Kind == KindString && b.Kind == KindString:
		switch {
		case a.Str < b.Str:
			return -1, true
		case a.Str > b.Str:
			return 1, true
		default:
			return 0, true
		}
	case a.Kind == KindBool && b.Kind == KindBool:
		switch {
		case a.Bool == b.Bool:
			return 0, true
		case !a.Bool:
			return -1, true
		default:
			return 1, true
		}
	default:
		return 0, false
	}
}
