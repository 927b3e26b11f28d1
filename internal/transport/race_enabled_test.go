//go:build race

package transport

// raceEnabled reports whether this binary was built with the race
// detector, under which sync.Pool drops Puts and allocation budgets are
// not measurable.
const raceEnabled = true
