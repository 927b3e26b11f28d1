package node

import (
	"sync/atomic"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// Shard crossings. Work one shard has for another loop travels as a
// by-value record over a bounded ring owned by the ordered pair (from,
// to): the producing loop pushes, rings an atomic doorbell, and only the
// push that finds the doorbell clear posts the ring's one pre-allocated
// drain runner — a lone record leaves at once, a burst crosses with one
// post, and the steady state allocates nothing (the same shape as the UDP
// underlay's reader→shard hand-off). The target loop runs each record with
// its packet borrowed, then releases the buffer that backs it. A full ring
// refuses the record: overload between shards is a counted outcome, never
// a longer queue.

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
	// crossReplay re-enters raw frame bytes at the target's underlay entry
	// point (a hello a data shard saw, a frame that missed its home).
	crossReplay
)

// crossing is one record. p's byte fields alias buf; a replay carries the
// raw frame in buf and no packet.
type crossing struct {
	kind crossKind
	// firstSeen is the arrival shard's dedup verdict (hand-off).
	firstSeen bool
	// neighbor is the next hop (egress) or the sender (control, replay).
	neighbor wire.NodeID
	// arrived is the arrival link (hand-off).
	arrived wire.LinkID
	p       wire.Packet
	buf     *wire.Buf
}

// crossRing is one ordered pair's ring, doorbell and drain runner.
type crossRing struct {
	ring *sim.SPSC[crossing]
	bell atomic.Bool
	to   *DataShard
	loop *sim.Loop
	// cur holds the record being run; it lives here rather than on the
	// drain's stack because link protocols take the packet's address.
	cur crossing
}

// ringTo returns this shard's ring toward target if it can take a record
// now, building it on first use; nil means refuse (ring full, or this
// shard has closed and must leave nothing behind for Close to miss).
func (s *DataShard) ringTo(target int) *crossRing {
	if s.closed {
		return nil
	}
	r := s.out[target].Load()
	if r == nil {
		r = &crossRing{
			ring: sim.NewSPSC[crossing](crossingRingCap),
			to:   s.plane.shards[target],
			loop: s.plane.loops.Shard(target),
		}
		s.out[target].Store(r)
	}
	if r.ring.Len() == r.ring.Cap() {
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
	r.push(c)
	return true
}

// push enqueues a record ringTo found room for and rings the doorbell.
func (r *crossRing) push(c crossing) {
	r.ring.Push(c)
	r.post()
}

// post rings the doorbell: the first caller to find it clear posts the
// drain; everyone else knows one is already queued or running.
func (r *crossRing) post() {
	if r.bell.CompareAndSwap(false, true) {
		r.loop.PostRunner(r)
	}
}

// Run implements sim.Runner on the target shard's loop.
func (r *crossRing) Run() {
	r.bell.Store(false)
	for i := 0; i < crossingDrainQuota; i++ {
		var ok bool
		if r.cur, ok = r.ring.Pop(); !ok {
			break
		}
		r.to.accept(&r.cur)
	}
	r.cur = crossing{}
	if !r.ring.Empty() {
		r.post()
	}
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
		case crossReplay:
			s.handleUnderlay(c.neighbor, c.buf.B)
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
			for !r.ring.Empty() {
				r.Run()
			}
		}
	}
}
