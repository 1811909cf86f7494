//go:build !race

package isa_test

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the decode sweep roughly tenfold.
const raceEnabled = false
