package lib

import "testing"

// The only read of S.testRead: test files do not count.
func TestTestRead(t *testing.T) {
	if s := (S{testRead: 1}); s.testRead != 1 {
		t.Fatal(s.testRead)
	}
}
