// Package lib is the library of the reachability check's test module.
package lib

// Live is called by the binary.
func Live() int { return 1 }

// Dead is called by nothing.
func Dead() int { return 2 }

// Kept is called by nothing either; the test keep-lists it.
func Kept() int { return 3 }

// registry's initializer calls register, which makes it a root and
// viaVar reachable.
var registry = register(viaVar)

func register(fs ...func() int) []func() int { return fs }

func viaVar() int { return 4 }

// T is reachable: the binary prints one.
type T struct{}

// String is kept: it is the method of fmt.Stringer.
func (T) String() string { return "T" }

// Unused is the method of no interface.
func (T) Unused() {}
