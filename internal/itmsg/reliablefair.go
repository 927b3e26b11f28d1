package itmsg

import (
	"sonet/internal/link"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// FlowKey identifies a source→destination flow for per-flow resource
// allocation. Reliable messaging allocates storage per flow rather than
// per source so a compromised destination cannot block a source's traffic
// to other destinations (§IV-B).
type FlowKey struct {
	// Src is the originating overlay node.
	Src wire.NodeID
	// Dst is the destination overlay node.
	Dst wire.NodeID
}

// ReliableFairLink is the Intrusion-Tolerant Reliable link discipline
// (§IV-B): per-flow buffers served round-robin over a paced link, with the
// hop-by-hop Reliable Data Link underneath for loss recovery. When a
// flow's buffer fills the link stops accepting new messages for that flow,
// creating backpressure toward the source while other flows keep their
// full fair share. Queueing and service run on the zero-allocation Core;
// dequeued buffers transfer to the inner ARQ without copying.
type ReliableFairLink struct {
	env  link.Env
	cfg  SchedConfig
	core *Core

	inner *link.Reliable

	pacing bool
	timer  sim.Timer
	// rejected counts packets refused because their flow's buffer was
	// full (the backpressure signal).
	rejected uint64
	closed   bool
}

var _ link.Protocol = (*ReliableFairLink)(nil)
var _ link.TrySender = (*ReliableFairLink)(nil)

// NewReliableFairLink returns an IT-Reliable endpoint. rel configures the
// underlying hop-by-hop ARQ.
func NewReliableFairLink(env link.Env, cfg SchedConfig, rel link.ReliableConfig) *ReliableFairLink {
	cfg = cfg.withDefaults()
	l := &ReliableFairLink{
		env:  env,
		cfg:  cfg,
		core: NewCore(cfg.coreConfig(PolicyReject)),
	}
	l.timer = env.Clock().NewTimer(l.pace)
	l.inner = link.NewReliable(&innerEnv{outer: env, proto: wire.LPITReliable}, rel)
	return l
}

// innerEnv rebadges the inner ARQ's frames as IT-Reliable so the peer
// demultiplexes them back to its ReliableFairLink.
type innerEnv struct {
	outer link.Env
	proto wire.LinkProtoID
}

func (e *innerEnv) Clock() sim.Clock { return e.outer.Clock() }

func (e *innerEnv) Transmit(f *wire.Frame) {
	f.Proto = e.proto
	e.outer.Transmit(f)
}

func (e *innerEnv) Deliver(p *wire.Packet) { e.outer.Deliver(p) }

// Send implements link.Protocol: it enqueues under per-flow allocation;
// the pacer feeds the underlying reliable link at capacity. The packet is
// borrowed; the core captures its bytes into pooled refcounted buffers.
func (l *ReliableFairLink) Send(p *wire.Packet) {
	if l.closed {
		return
	}
	l.enqueue(p)
}

// TrySend implements link.TrySender: like Send, but a packet refused
// because its flow is saturated returns link.ErrBackpressure, the typed
// signal sessions use to slow the source instead of losing traffic.
func (l *ReliableFairLink) TrySend(p *wire.Packet) error {
	if l.closed {
		return link.ErrBackpressure
	}
	if !l.enqueue(p).Accepted() {
		return link.ErrBackpressure
	}
	return nil
}

func (l *ReliableFairLink) enqueue(p *wire.Packet) Outcome {
	outcome := l.core.Enqueue(FlowKey{Src: p.Src, Dst: p.Dst}, p)
	if outcome.Accepted() {
		l.ensurePacing()
	} else {
		// Backpressure: the saturated flow's messages are refused.
		l.rejected++
	}
	return outcome
}

// Accepts reports whether the flow currently has buffer space — the
// backpressure signal an upstream hop or source consults before handing
// over another message.
func (l *ReliableFairLink) Accepts(key FlowKey) bool {
	return l.core.Accepts(key)
}

func (l *ReliableFairLink) ensurePacing() {
	if l.pacing || l.closed {
		return
	}
	l.pacing = true
	l.timer.Reset(l.cfg.interval())
}

func (l *ReliableFairLink) pace() {
	l.pacing = false
	if l.closed {
		return
	}
	p, buf, ok := l.core.Dequeue(l.env.Clock().Now())
	if !ok {
		return
	}
	// The captured buffer transfers to the inner ARQ, which retains it for
	// retransmission without another copy.
	l.inner.SendStored(p, buf)
	if l.core.Backlog() > 0 {
		l.ensurePacing()
	}
}

// HandleFrame implements link.Protocol, feeding the inner ARQ.
func (l *ReliableFairLink) HandleFrame(f *wire.Frame) {
	if l.closed {
		return
	}
	l.inner.HandleFrame(f)
}

// Stats implements link.Protocol, reporting the inner ARQ's counters.
func (l *ReliableFairLink) Stats() link.Stats { return l.inner.Stats() }

// Rejected returns the number of messages refused by backpressure.
func (l *ReliableFairLink) Rejected() uint64 { return l.rejected }

// QueuedFor returns the queue depth for one flow (diagnostics).
func (l *ReliableFairLink) QueuedFor(key FlowKey) int {
	return l.core.QueuedFor(key)
}

// Core exposes the scheduling engine (tests, diagnostics).
func (l *ReliableFairLink) Core() *Core { return l.core }

// Close implements link.Protocol.
func (l *ReliableFairLink) Close() {
	l.closed = true
	l.timer.Stop()
	l.core.Close()
	l.inner.Close()
}
