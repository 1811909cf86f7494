//go:build !race

package bench

// raceEnabled reports whether the test binary runs under the race
// detector, which slows the simulator roughly twentyfold.
const raceEnabled = false
