//go:build !race

package obs

// raceEnabled reports whether the test binary runs under the race
// detector, whose instrumentation can add heap allocations.
const raceEnabled = false
