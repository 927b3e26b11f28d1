//go:build !race

package wire

// RaceEnabled reports whether the race detector instruments this build.
const RaceEnabled = false
