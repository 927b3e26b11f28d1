package chaos

import (
	"fmt"
	"sort"
	"time"
)

// Event is one scheduled fault or repair, at a campaign-relative virtual
// time. Arg addresses a link index, node index, or ISP index depending on
// Kind; Val carries a magnitude (brownout loss permille, latency factor
// ×10); Mask carries a partition's group-A node-index bitmask.
type Event struct {
	At   time.Duration `json:"at"`
	Kind Kind          `json:"kind"`
	Arg  int           `json:"arg,omitempty"`
	Val  int           `json:"val,omitempty"`
	Mask NodeMask      `json:"mask,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("%s@%v arg=%d", e.Kind, e.At, e.Arg)
	if e.Val != 0 {
		s += fmt.Sprintf(" val=%d", e.Val)
	}
	if !e.Mask.Empty() {
		s += fmt.Sprintf(" mask=%s", e.Mask)
	}
	return s
}

// Equal reports whether two events are identical (times, kinds,
// arguments, and mask contents). Events hold a NodeMask slice, so ==
// does not apply.
func (e Event) Equal(o Event) bool {
	return e.At == o.At && e.Kind == o.Kind && e.Arg == o.Arg &&
		e.Val == o.Val && e.Mask.Equal(o.Mask)
}

// GeneratorSpec asks for seed-randomized faults of one kind at a bounded
// rate. Generators expand to concrete fault/repair event pairs before the
// world starts moving, so a campaign's behaviour depends only on the
// concrete script and the world seed — the foundation of replay.
type GeneratorSpec struct {
	// Kind is one of FaultKinds.
	Kind Kind `json:"kind"`
	// Rate is the target fault-injection rate in faults per second of
	// campaign window.
	Rate float64 `json:"rate"`
}

// Campaign is one self-contained chaos run: a topology, a determinism
// seed, a fault window, and adversity given as an explicit script, as
// randomized generators, or both.
type Campaign struct {
	Name     string        `json:"name,omitempty"`
	Topo     string        `json:"topo"`
	Seed     uint64        `json:"seed"`
	Duration time.Duration `json:"duration"`
	// Script lists hand-written events (campaign-relative times).
	Script []Event `json:"script,omitempty"`
	// Generators are expanded deterministically from Seed and appended
	// to Script.
	Generators []GeneratorSpec `json:"generators,omitempty"`
}

// sortEvents orders a script by time, preserving the relative order of
// equal-time events so expansion order stays deterministic.
func sortEvents(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
}

// Validate rejects campaigns the engine cannot run deterministically.
func (c Campaign) Validate() error {
	t, ok := TopologyByName(c.Topo)
	if !ok {
		return fmt.Errorf("chaos: unknown topology %q (have %v)", c.Topo, TopologyNames())
	}
	if c.Duration < 0 {
		return fmt.Errorf("chaos: negative duration %v", c.Duration)
	}
	for _, ev := range c.Script {
		f, _ := faultOf(ev.Kind)
		switch {
		case ev.At < 0:
			return fmt.Errorf("chaos: event %v before campaign start", ev)
		case f == nil:
			return fmt.Errorf("chaos: unknown event kind %q", ev.Kind)
		}
		if err := f.space.check(ev, t); err != nil {
			return err
		}
	}
	for _, g := range c.Generators {
		if f, repair := faultOf(g.Kind); f == nil || repair {
			return fmt.Errorf("chaos: generator kind %q is not a fault kind", g.Kind)
		}
		if g.Rate <= 0 {
			return fmt.Errorf("chaos: generator %q needs a positive rate", g.Kind)
		}
	}
	return nil
}
