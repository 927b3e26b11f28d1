package node

import (
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// Shard crossings. Work one shard has for another loop travels as a
// by-value record over the sim.Handoff owned by the ordered pair (from,
// to) — the same hand-off the UDP underlay's readers use toward the
// shards: the producing loop pushes and rings, a burst crosses with one
// post, and the steady state allocates nothing. The target loop runs each
// record with its packet borrowed, then releases the buffer that backs it.
// A full ring refuses the record: overload between shards is a counted
// outcome, never a longer queue.

// crossingRingCap bounds each pair's ring: many full receive batches of
// headroom before overload sheds.
const crossingRingCap = 1024

// crossingDrainQuota bounds how many records one drain runs before it
// re-posts itself, so a saturating crossing cannot starve the timers and
// control work sharing the target loop.
const crossingDrainQuota = 256

// crossKind says what the target shard does with a record.
type crossKind uint8

const (
	// crossEgress transmits the packet on the link session the target owns.
	crossEgress crossKind = iota + 1
	// crossDeliver hands the packet to the session level on shard 0.
	crossDeliver
	// crossHandoff has shard 0 decide a packet the arrival shard's snapshot
	// could not, on the arrival shard's dedup verdict.
	crossHandoff
	// crossControl hands a control payload to the managers on shard 0.
	crossControl
)

// crossing is one record; buf backs p's byte fields, and is nil when p
// has none.
type crossing struct {
	kind crossKind
	// firstSeen is the arrival shard's dedup verdict (hand-off).
	firstSeen bool
	// neighbor is the next hop (egress) or the sender (control).
	neighbor wire.NodeID
	// arrived is the arrival link (hand-off).
	arrived wire.LinkID
	p       wire.Packet
	buf     *wire.Buf
}

// crossRing is one ordered pair's hand-off.
type crossRing = sim.Handoff[crossing]

// ringTo returns this shard's ring toward target if it can take a record
// now, building it on first use; nil means refuse (ring full, or this
// shard has closed and must leave nothing behind for Close to miss).
func (s *DataShard) ringTo(target int) *crossRing {
	if s.closed {
		return nil
	}
	r := s.out[target].Load()
	if r == nil {
		r = sim.NewHandoff(crossingRingCap, crossingDrainQuota,
			s.plane.loops.Shard(target), s.plane.shards[target].accept)
		s.out[target].Store(r)
	}
	if r.Len() == r.Cap() {
		return nil
	}
	return r
}

// cross captures p into one pooled buffer and hands the record to target,
// reporting false when the crossing refused it.
func (s *DataShard) cross(target int, c crossing, p *wire.Packet) bool {
	r := s.ringTo(target)
	if r == nil {
		return false
	}
	c.buf = wire.CapturePacket(&c.p, p, wire.DefaultBufPool)
	r.Push(c)
	r.Ring()
	return true
}

// accept runs one record on this shard's loop and releases its buffer; a
// closed shard only releases.
func (s *DataShard) accept(c *crossing) {
	if !s.closed {
		switch c.kind {
		case crossEgress:
			s.egress(c.neighbor, &c.p)
		case crossDeliver:
			s.n.deliver(&c.p)
		case crossHandoff:
			s.forward(&c.p, c.arrived, c.firstSeen)
			s.n.engine.PublishIfDirty()
		case crossControl:
			s.n.handleControl(c.neighbor, &c.p)
		}
	}
	if c.buf != nil {
		c.buf.Release()
	}
}

// drainInbound empties every ring toward this shard, on its loop. Close
// runs it once every producer has closed, so nothing refills them.
func (s *DataShard) drainInbound() {
	for _, from := range s.plane.shards {
		if r := from.out[s.idx].Load(); r != nil {
			r.Drain()
		}
	}
}
