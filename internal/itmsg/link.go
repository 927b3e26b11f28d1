package itmsg

import (
	"time"

	"sonet/internal/link"
	"sonet/internal/metrics"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// SchedConfig parameterizes the fair link schedulers. The link's finite
// transmission rate is what makes fairness meaningful: a flooding attacker
// contends with honest sources for exactly this capacity.
type SchedConfig struct {
	// Rate is the link's transmission capacity in packets per second.
	Rate float64
	// BufferPerSource bounds stored packets per source (priority
	// messaging) or per flow (reliable messaging).
	BufferPerSource int
	// DisableFairness replaces per-source/per-flow round-robin with a
	// single FIFO queue — the baseline that resource-consumption attacks
	// defeat (ablation for EXP-FAIR).
	DisableFairness bool
	// TotalBuffer bounds the FIFO queue in the unfair baseline.
	TotalBuffer int
	// Stats receives drop/backpressure accounting; nil gets a private
	// sink. Each node shard sets its own, shared by the discipline
	// instances it hosts, and Daemon.SchedStats merges the shards'.
	Stats *metrics.SchedStats
}

// DefaultSchedConfig returns production defaults: a 1000 pkt/s link with
// 64-packet per-source buffers.
func DefaultSchedConfig() SchedConfig {
	return SchedConfig{Rate: 1000, BufferPerSource: 64, TotalBuffer: 512}
}

// FlowKey identifies a source→destination flow for per-flow resource
// allocation. Reliable messaging allocates storage per flow rather than
// per source so a compromised destination cannot block a source's traffic
// to other destinations (§IV-B).
type FlowKey struct {
	// Src is the originating overlay node.
	Src wire.NodeID
	// Dst is the destination overlay node; zero under per-source
	// allocation.
	Dst wire.NodeID
}

// storedSender is the link protocol underneath the fair queue: the pacer
// hands it each dequeued packet together with the buffer the core
// captured it into, which the protocol releases when it is done with the
// bytes.
type storedSender interface {
	link.Protocol
	SendStored(p *wire.Packet, buf *wire.Buf)
}

// Link is the intrusion-tolerant link (§IV-B): storage allocated per
// source or per flow, backlogged flows served round-robin at the link's
// rate, and an ordinary link protocol underneath that transmits what the
// pacer dequeues. The paper's two IT services are this one discipline in
// front of two links, and differ only in what a full buffer does:
//
//   - IT-Priority (NewPriorityLink): per-source buffers over a
//     best-effort link; a full source drops its oldest lowest-priority
//     message so the highest-priority ones stay timely, and a compromised
//     source can only ever consume its own share of the link.
//   - IT-Reliable (NewReliableFairLink): per-flow buffers over the
//     hop-by-hop Reliable Data Link; a full flow stops accepting, which is
//     backpressure toward its source while other flows keep their share.
//
// Queueing and service run on the zero-allocation Core; the captured
// buffer transfers to the inner protocol without a copy. Frames leave
// with the inner protocol's id and the host rebadges them (the node's
// linkEnv), so the peer demultiplexes them to its own Link.
type Link struct {
	env      link.Env
	interval time.Duration
	policy   OverflowPolicy
	core     *Core
	inner    storedSender

	pacing bool
	timer  sim.Timer
	// refused counts packets the buffer policy cost the link: evicted to
	// admit a newcomer, or turned away (drop under PolicyEvictLowest, the
	// backpressure signal under PolicyReject).
	refused uint64
	closed  bool
}

var _ link.Protocol = (*Link)(nil)
var _ link.TrySender = (*Link)(nil)

// NewPriorityLink returns an IT-Priority endpoint.
func NewPriorityLink(env link.Env, cfg SchedConfig) *Link {
	return newLink(env, cfg, PolicyEvictLowest, link.NewBestEffort(env))
}

// NewReliableFairLink returns an IT-Reliable endpoint. rel configures the
// underlying hop-by-hop ARQ.
func NewReliableFairLink(env link.Env, cfg SchedConfig, rel link.ReliableConfig) *Link {
	return newLink(env, cfg, PolicyReject, link.NewReliable(env, rel))
}

func newLink(env link.Env, cfg SchedConfig, policy OverflowPolicy, inner storedSender) *Link {
	if cfg.Rate <= 0 {
		cfg.Rate = DefaultSchedConfig().Rate
	}
	l := &Link{
		env:      env,
		interval: time.Duration(float64(time.Second) / cfg.Rate),
		policy:   policy,
		// NewCore defaults the buffer bounds.
		core: NewCore(CoreConfig{
			FlowBuffer:  cfg.BufferPerSource,
			Policy:      policy,
			FIFO:        cfg.DisableFairness,
			TotalBuffer: cfg.TotalBuffer,
			Stats:       cfg.Stats,
		}),
		inner: inner,
	}
	l.timer = env.Clock().NewTimer(l.pace)
	return l
}

// Send implements link.Protocol: it enqueues under the fair-allocation
// policy and lets the pacer transmit at link rate. The packet is borrowed;
// the core captures its bytes into pooled buffers.
func (l *Link) Send(p *wire.Packet) { _ = l.TrySend(p) }

// TrySend implements link.TrySender: like Send, but a packet refused by
// the buffer policy returns link.ErrBackpressure instead of vanishing, so
// originating callers (sessions) can slow down rather than lose traffic.
func (l *Link) TrySend(p *wire.Packet) error {
	if l.closed {
		return link.ErrBackpressure
	}
	key := FlowKey{Src: p.Src}
	if l.policy == PolicyReject {
		key.Dst = p.Dst
	}
	outcome := l.core.Enqueue(key, p)
	if outcome != Stored {
		l.refused++
	}
	if !outcome.Accepted() {
		return link.ErrBackpressure
	}
	l.ensurePacing()
	return nil
}

func (l *Link) ensurePacing() {
	if l.pacing {
		return
	}
	l.pacing = true
	l.timer.Reset(l.interval)
}

func (l *Link) pace() {
	l.pacing = false
	if l.closed {
		return
	}
	p, buf, ok := l.core.Dequeue(l.env.Clock().Now())
	if !ok {
		return
	}
	l.inner.SendStored(p, buf)
	if l.core.Backlog() > 0 {
		l.ensurePacing()
	}
}

// HandleFrame implements link.Protocol, feeding the inner protocol.
func (l *Link) HandleFrame(f *wire.Frame) {
	if l.closed {
		return
	}
	l.inner.HandleFrame(f)
}

// Stats implements link.Protocol: the inner protocol's counters, plus the
// buffer policy's drops where a refusal is a loss (IT-Priority) rather
// than backpressure.
func (l *Link) Stats() link.Stats {
	st := l.inner.Stats()
	if l.policy == PolicyEvictLowest {
		st.SendDropped += l.refused
	}
	return st
}

// Close implements link.Protocol.
func (l *Link) Close() {
	l.closed = true
	l.timer.Stop()
	l.core.Close()
	l.inner.Close()
}
