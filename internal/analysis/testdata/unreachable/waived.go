package main

// keptForTests is reached only by another package's tests; the waiver says
// which.
//
//ricsa:allow unreachable test support: a sibling package's TestExample
func keptForTests() {}

/* want "waiver directive requires a justification" */ //ricsa:allow unreachable
func unjustified() {                                   // want "unreachable: func unjustified"
}
