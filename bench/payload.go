package main

import (
	"encoding/binary"
	"math/bits"
	"sync/atomic"
)

// Payload layout: flow(2) ‖ seq(4) ‖ due(8) ‖ fill ‖ FNV-1a(4). due is the
// message's scheduled send time in nanoseconds on the harness clock; fill
// is seeded noise so a path that truncates or pads is caught by the
// checksum, not only by length.
const (
	payloadHeader = 14
	payloadMin    = payloadHeader + 4
)

func fnv1a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// stampPayload writes the header and checksum into buf, whose fill bytes
// the caller seeded once; only the first payloadHeader bytes and the
// trailing sum change per message.
func stampPayload(buf []byte, flow uint16, seq uint32, due int64) {
	binary.BigEndian.PutUint16(buf[0:], flow)
	binary.BigEndian.PutUint32(buf[2:], seq)
	binary.BigEndian.PutUint64(buf[6:], uint64(due))
	n := len(buf) - 4
	binary.BigEndian.PutUint32(buf[n:], fnv1a(buf[:n]))
}

// flowCheck verifies one receiver's view of one flow: every sequence
// number at most once (bitmap), in order when the flow is ordered.
type flowCheck struct {
	ordered bool
	// dupOK marks a flow whose service is at-least-once: a duplicate is
	// counted but is no failure (a hop-by-hop reliable link retransmits
	// across a reroute and nothing downstream deduplicates an unordered
	// flow).
	dupOK bool
	size  int
	seen  []uint64
	last  uint32
	// delivered counts distinct intact messages; the sender's closed
	// loop reads it from another goroutine.
	delivered atomic.Int64
	dups      int64
	reordered int64
}

func newFlowCheck(capacity int, size int, ordered bool) *flowCheck {
	return &flowCheck{ordered: ordered, size: size, seen: make([]uint64, capacity/64+1)}
}

// observe records seq and reports whether it is a first, in-range copy.
func (f *flowCheck) observe(seq uint32) bool {
	w, bit := int(seq/64), uint64(1)<<(seq%64)
	if w >= len(f.seen) || f.seen[w]&bit != 0 {
		f.dups++
		return false
	}
	f.seen[w] |= bit
	if f.ordered && seq < f.last {
		f.reordered++
	}
	if seq > f.last {
		f.last = seq
	}
	f.delivered.Add(1)
	return true
}

// deliveredFrom counts the distinct messages seen with seq >= from.
func (f *flowCheck) deliveredFrom(from uint32) int64 {
	var n int
	w := int(from / 64)
	if w < len(f.seen) {
		n = bits.OnesCount64(f.seen[w] >> (from % 64))
	}
	for w++; w < len(f.seen); w++ {
		n += bits.OnesCount64(f.seen[w])
	}
	return int64(n)
}

// checker verifies everything one receiver is handed.
type checker struct {
	flows   map[uint16]*flowCheck
	corrupt int64
}

func newChecker() *checker { return &checker{flows: make(map[uint16]*flowCheck)} }

// verify checks one delivered payload. It returns the flow's check, the
// sequence number and due time, and whether this is the first intact
// copy; a damaged, unknown-flow or wrong-size payload counts as corrupt.
func (c *checker) verify(p []byte) (f *flowCheck, seq uint32, due int64, fresh bool) {
	if len(p) < payloadMin {
		c.corrupt++
		return nil, 0, 0, false
	}
	n := len(p) - 4
	if binary.BigEndian.Uint32(p[n:]) != fnv1a(p[:n]) {
		c.corrupt++
		return nil, 0, 0, false
	}
	f = c.flows[binary.BigEndian.Uint16(p[0:])]
	if f == nil || f.size != len(p) {
		c.corrupt++
		return nil, 0, 0, false
	}
	seq = binary.BigEndian.Uint32(p[2:])
	due = int64(binary.BigEndian.Uint64(p[6:]))
	return f, seq, due, f.observe(seq)
}

// integrityFailures sums the outcomes that are wrong whatever the
// network did: damaged or reordered deliveries, and duplicates where the
// service promises none.
func (c *checker) integrityFailures() int64 {
	n := c.corrupt
	for _, f := range c.flows {
		n += f.reordered
		if !f.dupOK {
			n += f.dups
		}
	}
	return n
}
