package chaos

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// protectedNodes is how many leading world nodes are exempt from crash
// generators: indices 0..2 host the campaign's traffic endpoints (stream
// source, stream destination, multicast members), whose client state must
// survive so end-to-end invariants stay checkable. Scripts may still
// crash them explicitly — losing a destination is then a legitimate,
// detectable violation (the minimizer test relies on this).
const protectedNodes = 3

// maxFaultsPerGenerator bounds expansion so a mistyped rate cannot
// explode a campaign.
const maxFaultsPerGenerator = 64

// generator-expansion tuning: each fault instance picks a hold duration
// in its kind's range, sits inside the campaign window with margin on
// both sides, and leaves a grace gap before the same resource is faulted
// again.
const (
	expandMargin = 200 * time.Millisecond
	expandGrace  = 200 * time.Millisecond
)

// Expand turns a campaign's generators into concrete fault/repair event
// pairs and merges them with its script, returning the full sorted event
// list. Expansion is a pure function of (campaign, topology): it draws
// from its own PCG stream seeded by Campaign.Seed, entirely before the
// world runs, so the same campaign always yields the same script and a
// replayed script needs no generator state at all.
func Expand(c Campaign, t Topology) ([]Event, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	events := append([]Event(nil), c.Script...)
	if len(c.Generators) > 0 {
		rng := rand.New(rand.NewPCG(c.Seed, c.Seed^0x5eed_c4a0_5a77_0001))
		// busyUntil serializes faults per underlay resource so paired
		// repairs never interleave on the same target.
		busyUntil := make(map[string]time.Duration)
		for _, g := range c.Generators {
			events = append(events, expandGenerator(g, c, t, rng, busyUntil)...)
		}
	}
	sortEvents(events)
	return events, nil
}

func expandGenerator(g GeneratorSpec, c Campaign, t Topology, rng *rand.Rand, busyUntil map[string]time.Duration) []Event {
	n := min(max(int(g.Rate*c.Duration.Seconds()), 1), maxFaultsPerGenerator)
	f, _ := faultOf(g.Kind)
	var out []Event
	for i := 0; i < n; i++ {
		ev := Event{Kind: g.Kind}
		if !f.space.draw(&ev, t, rng) {
			continue
		}
		if f.val[1] > 0 {
			ev.Val = f.val[0] + rng.IntN(f.val[1])
		}
		key := fmt.Sprintf("%s:%d", f.busy, ev.Arg)
		lo, hi := f.hold[0], f.hold[1]
		hold := lo + time.Duration(rng.Int64N(int64(hi-lo)))
		window := c.Duration - hold - 2*expandMargin
		if window <= 0 {
			continue
		}
		start := expandMargin + time.Duration(rng.Int64N(int64(window)))
		// Sub-millisecond offset decorrelates event times from the
		// world's periodic timers so tie-breaking never carries weight.
		start += time.Duration(rng.Int64N(int64(time.Millisecond)))
		if start < busyUntil[key] {
			continue
		}
		busyUntil[key] = start + hold + expandGrace
		ev.At = start
		out = append(out, ev)
		if f.repair != "" {
			repair := ev
			repair.At = start + hold
			repair.Kind = f.repair
			out = append(out, repair)
		}
	}
	return out
}
