//go:build race

//ricsa:allow unreachable test support: RaceEnabled gates the allocation tests of viz, render, marchingcubes, fec, fcp, telemetry, steering and scenario

package testutil

// RaceEnabled reports whether the binary was built with -race.
const RaceEnabled = true
