//go:build race

package wire

// RaceEnabled reports whether the race detector instruments this build.
// Under it sync.Pool randomly drops a fraction of Puts to shake out races,
// so allocation budgets that flow through BufPool are not measurable, and
// its instrumentation taxes tight slice loops far more than map-heavy or
// syscall-heavy code, so wall-clock ratio assertions use a reduced floor.
const RaceEnabled = true
