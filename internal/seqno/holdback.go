package seqno

import "sonet/internal/wire"

// HoldBack is an in-order release buffer, the one rule a destination
// restores order by (§III-A, §IV-A): it owes the next sequence, holds the
// packets that arrive ahead of it, each captured into a pooled buffer, and
// releases them in sequence as gaps fill or are given up. A reliable or
// deadline flow's destination and a Reliable link that forwards in order
// each keep one; what gives a gap up — a deadline, a recovery schedule, a
// link's cumulative edge — is theirs.
//
// Every sequence held lies less than half the sequence space ahead of
// next, and held is in that serial order, so the buffer is one sorted run
// with no per-sequence index.
type HoldBack struct {
	next uint32
	// held[head:] are the packets held, in serial order from next.
	held []heldPacket
	head int
	// out is the packet being delivered, off the buffer so that the
	// delivery may change it.
	out heldPacket
}

// heldPacket is one packet held behind a gap, its bytes in buf.
type heldPacket struct {
	seq uint32
	p   wire.Packet
	buf *wire.Buf
}

// NewHoldBack returns an empty buffer that owes next.
func NewHoldBack(next uint32) *HoldBack { return &HoldBack{next: next} }

// Next returns the sequence owed next.
func (h *HoldBack) Next() uint32 { return h.next }

// Len returns the number of packets held.
func (h *HoldBack) Len() int { return len(h.held) - h.head }

// At returns the i-th packet held, in serial order from Next, and its
// sequence. The packet is the buffer's: it is valid until the next Arrive,
// Release or Close.
func (h *HoldBack) At(i int) (uint32, *wire.Packet) {
	e := &h.held[h.head+i]
	return e.seq, &e.p
}

// Seen reports whether seq is behind the sequence owed or held: a
// recovery schedule's record of what arrived.
func (h *HoldBack) Seen(seq uint32) bool {
	_, held := h.find(seq)
	return held || LT(seq, h.next)
}

// find returns where seq is, or would be, in held.
func (h *HoldBack) find(seq uint32) (int, bool) {
	off := seq - h.next
	lo, hi := h.head, len(h.held)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.held[mid].seq-h.next < off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(h.held) && h.held[lo].seq == seq
}

// Arrive takes in p, borrowed for the call, as sequence seq. The sequence
// owed is delivered in place, there being nothing to hold it back for; one
// ahead of it is captured and held. It reports whether p was held, and
// whether it was taken in at all: a sequence behind the one owed, or held
// already, is not, and nothing is captured. What the arrival uncovers
// waits for the caller's Release.
func (h *HoldBack) Arrive(seq uint32, p *wire.Packet, deliver func(*wire.Packet)) (held, ok bool) {
	if seq == h.next {
		h.next++
		deliver(p)
		return false, true
	}
	if !LT(h.next, seq) {
		return false, false
	}
	i, dup := h.find(seq)
	if dup {
		return false, false
	}
	if h.head > 0 && len(h.held) == cap(h.held) {
		// Reuse the room released at the front before growing.
		n := copy(h.held, h.held[h.head:])
		clear(h.held[n:])
		h.held, i, h.head = h.held[:n], i-h.head, 0
	}
	h.held = append(h.held, heldPacket{})
	copy(h.held[i+1:], h.held[i:])
	e := &h.held[i]
	e.seq = seq
	e.buf = wire.CapturePacket(&e.p, p, wire.DefaultBufPool)
	return true, true
}

// Release moves the sequence owed past through — delivering in sequence
// the packets held up to it and skipping the gaps between them, which were
// given up — and then delivers every packet held consecutively after it.
// Through Next − 1 it does only the latter. deliver borrows each packet for
// its call; it may Arrive, Release or Close the buffer.
func (h *HoldBack) Release(through uint32, deliver func(*wire.Packet)) {
	if base, span := h.next, through-h.next; LE(base, through) {
		for h.head < len(h.held) && h.held[h.head].seq-base <= span {
			h.next = h.held[h.head].seq + 1
			h.pop(deliver)
		}
		if h.next-base <= span {
			h.next = through + 1
		}
	}
	for h.head < len(h.held) && h.held[h.head].seq == h.next {
		h.next++
		h.pop(deliver)
	}
}

// pop takes the first packet held out of the buffer, then delivers and
// releases it: a delivery that closes the buffer finds it gone. The packet
// waits in out, not on the stack, where passing it to deliver would move
// every one to the heap; a delivery that releases from the buffer again
// overwrites it there, so it reads its own packet before it does.
func (h *HoldBack) pop(deliver func(*wire.Packet)) {
	h.out = h.held[h.head]
	h.held[h.head] = heldPacket{}
	if h.head++; h.head == len(h.held) {
		h.held, h.head = h.held[:0], 0
	}
	buf := h.out.buf
	deliver(&h.out.p)
	if buf != nil {
		buf.Release()
	}
}

// Close releases every packet held; the sequence owed stays.
func (h *HoldBack) Close() {
	for _, e := range h.held[h.head:] {
		if e.buf != nil {
			e.buf.Release()
		}
	}
	h.held, h.head = nil, 0
}
