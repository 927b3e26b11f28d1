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

// TurnHost is implemented by an Env whose host hands received frames over
// in turns: a batch handled back to back on the endpoint's loop, followed
// by an end the host announces. A deployed daemon's turn is one drain of
// a UDP read batch. A Reliable endpoint, whose cumulative, selective ack
// can answer a whole turn with one frame, defers its ack to the host
// instead of acking every frame. Outside a turn (an emulated node, where
// every datagram is its own event, never opens one), and over an Env
// that does not implement it (the test pipes), the endpoint acks each
// frame at once.
type TurnHost interface {
	// Defer reports whether a turn is open. If one is, the host calls
	// r.EndTurn exactly once when it ends, on the same loop, and r does
	// not ask again before then.
	Defer(r *Reliable) bool
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
	// GapScanClamps counts Strikes arrivals that revealed more than
	// maxGapScan gaps, the older of which were given up at once: a corrupt
	// or hostile frame, a peer that restarted its sequence space, or an
	// outage longer than maxGapScan frames.
	GapScanClamps uint64
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
