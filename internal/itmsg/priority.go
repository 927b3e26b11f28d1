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
	// sink. The node shares one SchedStats across its discipline
	// instances so Daemon.SchedStats aggregates the whole QoS plane.
	Stats *metrics.SchedStats
}

// DefaultSchedConfig returns production defaults: a 1000 pkt/s link with
// 64-packet per-source buffers.
func DefaultSchedConfig() SchedConfig {
	return SchedConfig{Rate: 1000, BufferPerSource: 64, TotalBuffer: 512}
}

func (c SchedConfig) withDefaults() SchedConfig {
	d := DefaultSchedConfig()
	if c.Rate <= 0 {
		c.Rate = d.Rate
	}
	if c.BufferPerSource <= 0 {
		c.BufferPerSource = d.BufferPerSource
	}
	if c.TotalBuffer <= 0 {
		c.TotalBuffer = d.TotalBuffer
	}
	return c
}

// interval returns the pacing interval between transmissions.
func (c SchedConfig) interval() time.Duration {
	return time.Duration(float64(time.Second) / c.Rate)
}

// coreConfig translates the discipline config for the scheduling core.
func (c SchedConfig) coreConfig(policy OverflowPolicy) CoreConfig {
	return CoreConfig{
		FlowBuffer:  c.BufferPerSource,
		Policy:      policy,
		FIFO:        c.DisableFairness,
		TotalBuffer: c.TotalBuffer,
		Stats:       c.Stats,
	}
}

// PriorityLink is the Intrusion-Tolerant Priority link discipline
// (§IV-B): storage is allocated per source, active sources are served
// round-robin, and when a source's buffer fills its oldest lowest-priority
// message is dropped so the highest-priority messages stay timely. A
// compromised source can therefore only ever consume its own share of the
// link. Queueing and service run on the zero-allocation Core.
type PriorityLink struct {
	env  link.Env
	cfg  SchedConfig
	core *Core

	pacing bool
	timer  sim.Timer
	stats  link.Stats
	// tx is the reusable frame for paced transmits.
	tx wire.Frame
	// evicted counts messages dropped by buffer policy on this link.
	evicted uint64
	closed  bool
}

var _ link.Protocol = (*PriorityLink)(nil)
var _ link.TrySender = (*PriorityLink)(nil)

// NewPriorityLink returns an IT-Priority endpoint.
func NewPriorityLink(env link.Env, cfg SchedConfig) *PriorityLink {
	cfg = cfg.withDefaults()
	l := &PriorityLink{
		env:  env,
		cfg:  cfg,
		core: NewCore(cfg.coreConfig(PolicyEvictLowest)),
	}
	l.timer = env.Clock().NewTimer(l.pace)
	return l
}

// Send implements link.Protocol: it enqueues under the fair-allocation
// policy and lets the pacer transmit at link rate. The packet is borrowed;
// the core captures its bytes into pooled refcounted buffers.
func (l *PriorityLink) Send(p *wire.Packet) {
	if l.closed {
		return
	}
	l.enqueue(p)
}

// TrySend implements link.TrySender: like Send, but a packet refused by
// the buffer policy returns link.ErrBackpressure instead of vanishing, so
// originating callers (sessions) can slow down rather than lose traffic.
func (l *PriorityLink) TrySend(p *wire.Packet) error {
	if l.closed {
		return link.ErrBackpressure
	}
	if !l.enqueue(p).Accepted() {
		return link.ErrBackpressure
	}
	return nil
}

func (l *PriorityLink) enqueue(p *wire.Packet) Outcome {
	outcome := l.core.Enqueue(FlowKey{Src: p.Src}, p)
	switch outcome {
	case Stored:
		l.ensurePacing()
	case StoredEvicted:
		l.evicted++
		l.stats.SendDropped++
		l.ensurePacing()
	case RefusedLow, RefusedFIFO:
		l.evicted++
		l.stats.SendDropped++
	}
	return outcome
}

func (l *PriorityLink) ensurePacing() {
	if l.pacing || l.closed {
		return
	}
	l.pacing = true
	l.timer.Reset(l.cfg.interval())
}

func (l *PriorityLink) pace() {
	l.pacing = false
	if l.closed {
		return
	}
	now := l.env.Clock().Now()
	p, buf, ok := l.core.Dequeue(now)
	if !ok {
		return
	}
	l.stats.DataSent++
	l.tx = wire.Frame{
		Proto:    wire.LPITPriority,
		Kind:     wire.FData,
		SendTime: now,
		Packet:   p,
	}
	l.env.Transmit(&l.tx)
	// Transmit marshals synchronously, so the captured bytes are done.
	if buf != nil {
		buf.Release()
	}
	if l.core.Backlog() > 0 {
		l.ensurePacing()
	}
}

// HandleFrame implements link.Protocol.
func (l *PriorityLink) HandleFrame(f *wire.Frame) {
	if l.closed || f.Kind != wire.FData || f.Packet == nil {
		return
	}
	l.stats.Delivered++
	l.env.Deliver(f.Packet)
}

// Stats implements link.Protocol.
func (l *PriorityLink) Stats() link.Stats { return l.stats }

// Evicted returns messages dropped by the buffer-allocation policy.
func (l *PriorityLink) Evicted() uint64 { return l.evicted }

// QueuedFor returns the queue depth for one source (diagnostics).
func (l *PriorityLink) QueuedFor(src wire.NodeID) int {
	return l.core.QueuedFor(FlowKey{Src: src})
}

// Core exposes the scheduling engine (tests, diagnostics).
func (l *PriorityLink) Core() *Core { return l.core }

// Close implements link.Protocol.
func (l *PriorityLink) Close() {
	l.closed = true
	l.timer.Stop()
	l.core.Close()
}
