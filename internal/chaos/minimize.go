package chaos

import "fmt"

// Minimize shrinks a failing campaign to a minimal failing prefix of its
// concrete event script by greedy bisection: it verifies the full script
// fails, then binary-searches the shortest prefix that still fails. The
// engine's restore-all pass makes truncated scripts well-formed — repairs
// the prefix cut off are applied at the end of the fault window — so
// every probe run is a legitimate campaign. Returns the minimized
// campaign (script only, generators dropped) and its failing report.
//
// Bisection assumes failures are roughly monotone in the prefix; when
// they are not, the result is still a failing prefix, just not provably
// the shortest.
func Minimize(c Campaign) (Campaign, *Report, error) {
	t, ok := TopologyByName(c.Topo)
	if !ok {
		return Campaign{}, nil, fmt.Errorf("chaos: unknown topology %q", c.Topo)
	}
	if c.Duration == 0 {
		c.Duration = defaultDuration
	}
	events, err := Expand(c, t)
	if err != nil {
		return Campaign{}, nil, err
	}
	prefix := func(n int) Campaign {
		return Campaign{
			Name:     c.Name,
			Topo:     c.Topo,
			Seed:     c.Seed,
			Duration: c.Duration,
			Script:   append([]Event(nil), events[:n]...),
		}
	}
	runPrefix := func(n int) (*Report, error) { return Run(prefix(n)) }
	full, err := runPrefix(len(events))
	if err != nil {
		return Campaign{}, nil, err
	}
	if !full.Failed() {
		return Campaign{}, full, fmt.Errorf("chaos: campaign passes; nothing to minimize")
	}
	// Invariant: prefix hi fails; prefixes at or below lo-1 passed.
	lo, hi := 0, len(events)
	best := full
	for lo < hi {
		mid := (lo + hi) / 2
		r, err := runPrefix(mid)
		if err != nil {
			return Campaign{}, nil, err
		}
		if r.Failed() {
			hi = mid
			best = r
		} else {
			lo = mid + 1
		}
	}
	return prefix(hi), best, nil
}
