//go:build !race

package transport

// raceEnabled reports whether this binary was built with the race
// detector.
const raceEnabled = false
