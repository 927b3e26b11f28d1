package session

import (
	"encoding/binary"
	"fmt"
	"time"

	"sonet/internal/link"
	"sonet/internal/seqno"
	"sonet/internal/wire"
)

// End-to-end recovery gives ordered unicast flows without a deadline the
// "completely reliable" service the paper's control traffic needs
// (§III-B, §IV-B Reliable messaging): hop-by-hop ARQ recovers link loss,
// but packets in flight on a link that dies are gone and must be recovered
// end to end. The destination session detects flow-sequence gaps and
// NACKs them to the source, which retains a bounded history and reinjects
// the missing packets (with their original origin timestamps, so measured
// latency stays honest).

// nackHeaderLen is origin(2) port(2) count(2).
const nackHeaderLen = 6

// maxNackSeqs bounds sequences per NACK packet.
const maxNackSeqs = 64

// nackInterval is the destination's gap-recovery request period for
// reliable (ordered, no-deadline) flows. A gap's first NACK waits one
// period too: links forward out of order, so a gap at the destination is
// most often a frame a hop is still recovering.
const nackInterval = 100 * time.Millisecond

// tailFlushInterval is the idle period after which a reliable flow's
// source re-sends its last packet: trailing losses are invisible to the
// destination's gap detection (nothing later reveals them), so the tail is
// protected from the sending side. tailFlushTries bounds the re-sends per
// quiet period.
const (
	tailFlushInterval = 250 * time.Millisecond
	tailFlushTries    = 8
)

// nack identifies missing flow sequences back to the source flow.
type nack struct {
	// origin is the destination node sending the NACK.
	origin wire.NodeID
	// port is the destination client's port (the flow's DstPort).
	port wire.Port
	// seqs lists the missing flow sequences.
	seqs []uint32
}

func (k *nack) marshal() []byte {
	buf := make([]byte, nackHeaderLen, nackHeaderLen+4*len(k.seqs))
	binary.BigEndian.PutUint16(buf[0:], uint16(k.origin))
	binary.BigEndian.PutUint16(buf[2:], uint16(k.port))
	binary.BigEndian.PutUint16(buf[4:], uint16(len(k.seqs)))
	var s [4]byte
	for _, seq := range k.seqs {
		binary.BigEndian.PutUint32(s[:], seq)
		buf = append(buf, s[:]...)
	}
	return buf
}

func unmarshalNack(src []byte) (*nack, error) {
	if len(src) < nackHeaderLen {
		return nil, fmt.Errorf("session: nack header %d bytes", len(src))
	}
	k := &nack{
		origin: wire.NodeID(binary.BigEndian.Uint16(src[0:])),
		port:   wire.Port(binary.BigEndian.Uint16(src[2:])),
	}
	count := int(binary.BigEndian.Uint16(src[4:]))
	src = src[nackHeaderLen:]
	if len(src) < 4*count {
		return nil, fmt.Errorf("session: nack with %d seqs in %d bytes", count, len(src))
	}
	k.seqs = make([]uint32, count)
	for i := range k.seqs {
		k.seqs[i] = binary.BigEndian.Uint32(src[4*i:])
	}
	return k, nil
}

// wantsE2ERecovery reports whether a flow uses the reliable transport
// service: ordered unicast with no deadline.
func wantsE2ERecovery(spec FlowSpec) bool {
	return spec.Ordered && spec.Deadline == 0 && spec.DstNode != 0 && spec.Group == 0
}

// packetWantsE2E mirrors wantsE2ERecovery on the receive side.
func packetWantsE2E(p *wire.Packet) bool {
	return p.Flags.Has(wire.FOrdered) && p.Deadline == 0 && p.Group == 0
}

// newReorderState returns the hold-back buffer of a flow whose first
// packet arrived; a reliable flow's buffer also recovers gaps from the
// source. A
// gap is NACKed a nackInterval after it was found and every nackInterval
// after that, NackMaxTries times, and given up one interval after the
// last: the source is gone or its history no longer covers the gap, so
// the destination delivers what it has rather than stall. Gaps further
// back than the source's history are given up at once.
func (c *Client) newReorderState(id flowID, reliable bool) *reorderState {
	st := &reorderState{c: c, id: id, hold: seqno.NewHoldBack(1)}
	if reliable {
		m := c.mgr
		st.gaps = seqno.NewQueue(m.clock, st, st.requestGaps, seqno.Schedule{
			Step:  nackInterval,
			Tries: m.NackMaxTries,
			Wait:  true,
			Life:  time.Duration(m.NackMaxTries+1) * nackInterval,
			Clamp: uint32(max(m.HistoryLimit, 1)),
		})
	}
	return st
}

// Seen and Pass make the hold-back buffer the window a reliable flow's
// gaps are recovered in: a sequence has arrived if it is below next or
// held, and giving one up delivers past it.
func (st *reorderState) Seen(seq uint32) bool { return st.hold.Seen(seq) }

func (st *reorderState) Pass(seq uint32) { st.hold.Release(seq, st.deliver) }

// requestGaps NACKs the gaps due in one firing of the flow's recovery
// schedule, in as few packets as maxNackSeqs allows.
func (st *reorderState) requestGaps(due []seqno.Request) {
	c := st.c
	for len(due) > 0 {
		k := nack{origin: c.mgr.n.ID(), port: c.port, seqs: make([]uint32, min(len(due), maxNackSeqs))}
		for i := range k.seqs {
			k.seqs[i] = due[i].Seq
		}
		due = due[len(k.seqs):]
		p := &wire.Packet{
			Type:      wire.PTSessionCtl,
			Route:     wire.RouteLinkState,
			LinkProto: wire.LPReliable,
			Dst:       st.id.src,
			DstPort:   st.id.srcPort,
			SrcPort:   c.port,
			Payload:   k.marshal(),
		}
		_ = c.mgr.n.Originate(p)
	}
}

// handleNack retransmits the requested sequences of the flow addressed by
// the NACK's destination port.
func (m *Manager) handleNack(p *wire.Packet) {
	f, ok := m.flowPorts[p.DstPort]
	if !ok {
		m.noClient++
		return
	}
	k, err := unmarshalNack(p.Payload)
	if err != nil {
		return
	}
	if f.spec.DstNode != k.origin || f.spec.DstPort != k.port {
		return
	}
	for _, seq := range k.seqs {
		f.resend(seq)
	}
}

// resend reinjects one sequence from the flow's history.
func (f *Flow) resend(seq uint32) {
	if f.history == nil {
		return
	}
	p, ok := f.history.Get(seq)
	if !ok {
		return
	}
	cp := p.Clone()
	// A recovery copy is marked, and takes the link-state route: on a flood
	// or source-mask route the source's duplicate table, which saw the
	// sequence when it was originated, would suppress it.
	cp.Flags |= wire.FRetrans
	cp.Route, cp.Mask = wire.RouteLinkState, wire.Bitmask{}
	f.stats.Duplicates++
	_ = f.client.mgr.n.Resend(cp)
}

// remember retains a copy of a sent packet for end-to-end recovery; the
// history covers the flow's last HistoryLimit sequences.
func (f *Flow) remember(p *wire.Packet) {
	if f.history == nil {
		f.history = link.NewSeqRing[wire.Packet](f.client.mgr.HistoryLimit, nil, nil)
	}
	f.history.Put(p.FlowSeq, *p)
}

// armTailFlush (re)schedules the tail-protection timer: if the flow goes
// quiet, the last packet is re-sent a bounded number of times so the
// destination learns about (and can NACK) any trailing losses.
func (f *Flow) armTailFlush() {
	f.tailTries = 0
	f.tailTimer.Reset(tailFlushInterval)
}

// tailFlush is the tail-protection timer's callback: one re-send of the
// last packet, then a wait twice as long for the next.
func (f *Flow) tailFlush() {
	if f.client.closed || f.tailTries >= tailFlushTries {
		return
	}
	f.tailTries++
	f.resend(f.seq)
	f.tailTimer.Reset(tailFlushInterval << f.tailTries)
}
