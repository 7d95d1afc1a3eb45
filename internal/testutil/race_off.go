//go:build !race

//ricsa:allow unreachable test support: RaceEnabled gates the allocation tests of viz, render, marchingcubes, fec, fcp, telemetry, steering and scenario

// Package testutil holds tiny helpers shared by tests, notably race-detector
// detection: allocation-regression tests assert exact per-op allocation
// bounds that race instrumentation inflates, so they skip under -race (the
// non-race CI job still enforces them).
package testutil

// RaceEnabled reports whether the binary was built with -race.
const RaceEnabled = false
