package script

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"ids/internal/expr"
)

// FuzzIDscript parses arbitrary source and calls every function of a
// module that parses twice with the same fuzzed arguments: bit i of
// kinds makes argument i the string str, otherwise the number num+i.
// Nothing may panic, both calls must agree on the value and the error,
// and a call answers with a value or with an error (the step budget and
// the depth limit included), never with both.
func FuzzIDscript(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, num float64, str string, kinds uint8) {
		m, err := ParseModule("fz", src)
		if err != nil {
			return
		}
		names := make([]string, 0, len(m.Funcs))
		for name := range m.Funcs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			args := make([]expr.Value, len(m.Funcs[name].Params))
			for i := range args {
				if kinds>>(i%8)&1 == 1 {
					args[i] = expr.String(str)
				} else {
					args[i] = expr.Float(num + float64(i))
				}
			}
			// Each call gets its own copy of the arguments.
			v1, err1 := m.Call(name, append([]expr.Value(nil), args...))
			v2, err2 := m.Call(name, append([]expr.Value(nil), args...))
			if got, want := outcome(v2, err2), outcome(v1, err1); got != want {
				t.Fatalf("%s%v: second call %s, first %s", name, args, got, want)
			}
			if err1 != nil && v1 != expr.Null {
				t.Fatalf("%s%v: value %s together with error %v", name, args, v1, err1)
			}
			var rs returnSignal
			if errors.As(err1, &rs) {
				t.Fatalf("%s%v: a return escaped the call as an error", name, args)
			}
		}
	})
}

// outcome renders a call's answer so two answers compare equal exactly
// when they are the same value (NaN included) and the same error.
func outcome(v expr.Value, err error) string {
	return fmt.Sprintf("%#v %v", v, err)
}
