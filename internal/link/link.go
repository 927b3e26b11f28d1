// Package link implements the link-level protocols of the overlay node
// software architecture (Fig. 2): Best Effort, the hop-by-hop Reliable Data
// Link with ARQ and out-of-order forwarding (§III-A), and the NM-Strikes
// real-time recovery protocol with its single-strike VoIP predecessor
// (§IV-A, Fig. 4).
//
// A Protocol instance runs on one endpoint of one overlay link. The node
// hosting it supplies an Env: a clock, a way to transmit frames to the
// peer, and a way to deliver received packets up to the routing level.
// Protocols are single-threaded: all calls into a Protocol are serialized
// by the owning node's executor.
package link

import (
	"errors"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// ErrBackpressure reports that a bounded scheduler queue refused a packet
// because the flow (or the shared buffer) is saturated. It is the typed
// signal the fair disciplines raise through TrySend so originating
// callers — sessions, applications — can slow down instead of silently
// losing traffic; transit forwarding keeps the paper's drop semantics.
var ErrBackpressure = errors.New("link: flow queue saturated (backpressure)")

// TrySender is implemented by protocols whose admission policy can refuse
// a packet (bounded per-flow queues). TrySend behaves exactly like Send
// but reports the refusal with ErrBackpressure instead of dropping
// silently. Protocols without admission control simply don't implement
// it, and callers fall back to Send.
type TrySender interface {
	// TrySend transmits like Protocol.Send; it returns ErrBackpressure if
	// the packet was refused by the admission policy. The packet is
	// borrowed, as with Send.
	TrySend(p *wire.Packet) error
}

// Env is what a link protocol instance needs from its host overlay node.
//
// Buffer ownership: Transmit and Deliver both borrow their argument — the
// callee uses it synchronously (marshal, route, deliver) and must not keep
// a reference past the call, because frames may be protocol scratch space
// and packets may alias pooled receive buffers (see DESIGN.md §6).
type Env interface {
	// Clock returns the node's clock.
	Clock() sim.Clock
	// Transmit sends a frame to the link's peer over the underlay. The
	// frame is borrowed: it is marshaled before Transmit returns and may
	// be reused by the caller immediately after.
	Transmit(f *wire.Frame)
	// Deliver hands a packet received on this link up to the node's
	// forwarding plane. The packet is borrowed; the forwarding plane
	// clones it if anything retains it past the call.
	Deliver(p *wire.Packet)
}

// Protocol is one endpoint of a link-level protocol instance.
type Protocol interface {
	// Send transmits a routing-level packet to the peer, applying the
	// protocol's recovery discipline. The packet is borrowed: protocols
	// that retain packets (retransmission history, pacing queues) clone
	// internally, which keeps the common fan-out path allocation-free.
	Send(p *wire.Packet)
	// HandleFrame processes a frame received from the peer. The frame and
	// its packet are borrowed for the duration of the call.
	HandleFrame(f *wire.Frame)
	// Stats returns a snapshot of the instance's counters.
	Stats() Stats
	// Close cancels all pending timers and releases retransmission
	// buffers; a closed protocol ignores Send and HandleFrame, and none of
	// its timers fire afterwards.
	Close()
}

// Stats counts link-protocol activity on one link endpoint. The overhead
// analyses (e.g. NM-Strikes' 1 + M·p cost, §IV-A) are computed from these.
type Stats struct {
	// DataSent counts first transmissions of data frames.
	DataSent uint64
	// Retransmissions counts repeated transmissions of data frames.
	Retransmissions uint64
	// Requests counts retransmission requests sent to the peer.
	Requests uint64
	// Acks counts acknowledgment frames sent to the peer.
	Acks uint64
	// Delivered counts distinct packets delivered upward.
	Delivered uint64
	// DuplicatesDropped counts received data frames whose sequence was
	// already delivered.
	DuplicatesDropped uint64
	// SendDropped counts packets dropped at the sender (window or buffer
	// overflow).
	SendDropped uint64
	// HistoryPackets and HistoryBytes are gauges, not counts: the packets
	// the endpoint holds for retransmission now and the signature and
	// payload bytes they carry. WindowBytes is its receive-window bitmap.
	HistoryPackets, HistoryBytes, WindowBytes int
	// MissingClamps counts Reliable gap scans whose peer-supplied bound lay
	// past the receive window and was cut to it; GapScanClamps counts
	// Strikes arrivals that jumped more than maxGapScan sequences ahead.
	// Either means a corrupt or hostile frame, or a peer that restarted its
	// sequence space.
	MissingClamps, GapScanClamps uint64
}

// seqLE reports a <= b in RFC 1982 serial-number arithmetic over the full
// uint32 space: b is "at or after" a when the forward distance from a to b
// is shorter than the wrap distance. Link sessions are long-lived, so
// sequence numbers genuinely pass 2^32; raw comparisons would then treat
// every fresh frame as ancient and black-hole the link.
func seqLE(a, b uint32) bool { return int32(b-a) >= 0 }

// seqLT reports a < b in serial-number arithmetic.
func seqLT(a, b uint32) bool { return int32(b-a) > 0 }

// seqWindow tracks which link sequence numbers have been seen, supporting
// cumulative-plus-bitmap acknowledgment and duplicate suppression. It
// handles the sequences 1,2,3,… used by the link protocols, compared in
// serial-number arithmetic so sessions survive the sequence space wrapping
// past 2^32. The window is a ring buffer, so recording and advancing are
// O(1) amortized.
//
// The zero value tracks nothing; use newSeqWindow.
type seqWindow struct {
	// cum is the highest sequence (serially) such that all sequences at or
	// before it were seen.
	cum uint32
	// bits marks sequences cum+1+i as seen at ring position (start+i) % n,
	// one bit each.
	bits     []uint64
	n, start int
	// clamps counts Missing scans cut to the window; the owning endpoint
	// reports it as Stats.MissingClamps.
	clamps uint64
}

func newSeqWindow(capacity int) *seqWindow {
	return &seqWindow{bits: make([]uint64, (capacity+63)/64), n: capacity}
}

// word returns the word and mask of ring position start+i, for i < n.
func (w *seqWindow) word(i int) (*uint64, uint64) {
	pos := w.start + i
	if pos >= w.n {
		pos -= w.n
	}
	return &w.bits[pos>>6], 1 << (pos & 63)
}

func (w *seqWindow) at(i int) bool {
	word, mask := w.word(i)
	return *word&mask != 0
}

// Seen reports whether seq was recorded.
func (w *seqWindow) Seen(seq uint32) bool {
	if seqLE(seq, w.cum) {
		return true
	}
	// seq is serially after cum, so the unsigned difference is the true
	// forward distance even across a wrap.
	idx := seq - w.cum - 1
	return idx < uint32(w.n) && w.at(int(idx))
}

// Record marks seq as seen and advances the cumulative edge. It reports
// whether the sequence was newly recorded (false for duplicates and for
// sequences too far ahead of the window, which are dropped).
func (w *seqWindow) Record(seq uint32) bool {
	if seqLE(seq, w.cum) {
		return false
	}
	idx := seq - w.cum - 1
	if idx >= uint32(w.n) {
		return false
	}
	word, mask := w.word(int(idx))
	if *word&mask != 0 {
		return false
	}
	*word |= mask
	for w.at(0) {
		word, mask = w.word(0)
		*word &^= mask
		w.start = (w.start + 1) % w.n
		w.cum++
	}
	return true
}

// Bytes returns the size of the window's bitmap.
func (w *seqWindow) Bytes() int { return 8 * len(w.bits) }

// Cum returns the cumulative edge: every sequence serially at or before
// Cum has been seen.
func (w *seqWindow) Cum() uint32 { return w.cum }

// AckBits encodes the out-of-order sequences above the cumulative edge as
// the selective-ack bitmap used in FAck frames.
func (w *seqWindow) AckBits() uint64 {
	var bits uint64
	for i := 0; i < min(w.n, 64); i++ {
		if w.at(i) {
			bits |= 1 << i
		}
	}
	return bits
}

// Missing appends to out the sequences in (cum, upTo] not yet seen, at
// most max of them — the gaps a receiver should request. upTo comes off
// the wire, so the scan is clamped to the window capacity: anything past
// the window could not have been recorded anyway, and an absurd (corrupt
// or hostile) upTo must not spin the event loop for up to 2^32 iterations.
func (w *seqWindow) Missing(upTo uint32, max int, out []uint32) []uint32 {
	if seqLE(upTo, w.cum) {
		return out
	}
	span := upTo - w.cum
	if span > uint32(w.n) {
		span = uint32(w.n)
		w.clamps++
	}
	for i, found := uint32(1), 0; i <= span && found < max; i++ {
		if seq := w.cum + i; !w.Seen(seq) {
			out = append(out, seq)
			found++
		}
	}
	return out
}

// orDefault sets a configuration field that is not positive to its
// default.
func orDefault[T int | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

// clampDur returns d clamped to at least lo.
func clampDur(d, lo time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	return d
}
