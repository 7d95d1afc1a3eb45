package main

import "testing"

// A test's references never make a declaration live, and a test file's own
// declarations are never reported.
func TestOnly(t *testing.T) {
	if testOnly() != 1 || helper() != 2 {
		t.Fatal("testOnly")
	}
}

func helper() int { return 2 }
