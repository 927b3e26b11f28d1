// Package metrics collects and summarizes the delivery measurements the
// experiments report: one-way latency distributions, jitter, on-time
// fractions under deadlines, and transmission-overhead ratios.
//
// It also holds the four counter families that another goroutine writes or
// reads while their owner runs, which is why they alone are atomic
// (DESIGN.md §6 *Counters*): PoolStats, SPFStats, WireStats and SchedStats.
// Every other family is a plain struct in the package that owns it, written
// and read on that package's loop.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// PoolStats counts buffer-pool activity on the forwarding fast path. The
// counters are atomic: the process-wide pool is drawn from and released to
// by the UDP read loops and every event loop at once.
//
// The zero value is ready to use.
type PoolStats struct {
	// Hits counts Get calls served by a recycled buffer.
	Hits atomic.Uint64
	// Misses counts Get calls that had to allocate (empty pool or an
	// oversized request no size class covers).
	Misses atomic.Uint64
	// Recycled counts buffer capacity (bytes) returned to the pool for
	// reuse instead of being garbage.
	Recycled atomic.Uint64
}

// PoolSnapshot is a point-in-time copy of PoolStats.
type PoolSnapshot struct {
	// Hits counts Get calls served by a recycled buffer.
	Hits uint64
	// Misses counts Get calls that allocated.
	Misses uint64
	// Recycled counts buffer bytes returned for reuse.
	Recycled uint64
}

// Snapshot returns a consistent-enough copy of the counters.
func (s *PoolStats) Snapshot() PoolSnapshot {
	return PoolSnapshot{
		Hits:     s.Hits.Load(),
		Misses:   s.Misses.Load(),
		Recycled: s.Recycled.Load(),
	}
}

// HitRatio returns Hits / (Hits + Misses), or 0 before the first Get.
func (s PoolSnapshot) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// SPFStats counts overlay shortest-path-tree recomputation activity in the
// control plane. Every LSA that changes the shared view forces each node to
// rebuild its SPT; the dense slice-indexed SPF reuses a per-tree scratch
// arena, so a warmed recompute performs zero allocations. The counters are
// atomic: they are one process-wide set, written by every routing engine in
// the process and read by harnesses while daemons run.
//
// The zero value is ready to use.
type SPFStats struct {
	// Runs counts full SPF executions (SPTInto calls).
	Runs atomic.Uint64
	// ScratchReuses counts runs that recomputed entirely into an
	// already-sized scratch arena (no allocation).
	ScratchReuses atomic.Uint64
}

// Snapshot returns a consistent-enough copy of the counters.
func (s *SPFStats) Snapshot() SPFSnapshot {
	return SPFSnapshot{
		Runs:          s.Runs.Load(),
		ScratchReuses: s.ScratchReuses.Load(),
	}
}

// SPFSnapshot is a point-in-time copy of SPFStats.
type SPFSnapshot struct {
	// Runs counts full SPF executions.
	Runs uint64
	// ScratchReuses counts allocation-free runs into reused scratch.
	ScratchReuses uint64
	// Incrementals always reads 0: every tree is a full run. It is kept
	// for bench/ alone, whose per-layer tally still reads it.
	Incrementals uint64
}

// ReuseRatio returns ScratchReuses / Runs, or 0 before the first run.
func (s SPFSnapshot) ReuseRatio() float64 {
	if s.Runs == 0 {
		return 0
	}
	return float64(s.ScratchReuses) / float64(s.Runs)
}

// WireStats counts datagram-level activity on one real UDP underlay: how
// many datagrams and bytes crossed the socket in each direction, and how
// effectively the batched data plane amortizes its syscalls (packets per
// recvmmsg/sendmmsg wakeup). The counters are atomic: the read goroutine,
// the shard loops and Send from any goroutine all write them.
//
// The zero value is ready to use.
type WireStats struct {
	// RecvBatches counts receive wakeups (one recvmmsg call on Linux, one
	// datagram read on the portable path; on Linux a call that returned
	// more datagrams than the reader's table holds counts once more for
	// the rest).
	RecvBatches atomic.Uint64
	// RecvPackets counts datagrams drained from the socket, each datagram
	// of a coalesced message on its own.
	RecvPackets atomic.Uint64
	// RecvCoalesced counts the datagrams of RecvPackets that arrived inside
	// a multi-datagram message (UDP_GRO on Linux) and were split apart.
	RecvCoalesced atomic.Uint64
	// RecvBytes counts datagram payload bytes drained from the socket.
	RecvBytes atomic.Uint64
	// RecvUnknown counts datagrams dropped because the source address did
	// not belong to a registered peer.
	RecvUnknown atomic.Uint64
	// SendBatches counts send flushes of a shard's coalescing ring: one
	// sendmmsg call per 32 messages on Linux, one write loop on the
	// portable path.
	SendBatches atomic.Uint64
	// SendPackets counts datagrams handed to the kernel.
	SendPackets atomic.Uint64
	// SendSegmented counts the datagrams of SendPackets that left inside a
	// multi-datagram message (UDP_SEGMENT on Linux).
	SendSegmented atomic.Uint64
	// SendBytes counts datagram payload bytes handed to the kernel.
	SendBytes atomic.Uint64
	// SendDropped counts frames dropped on the send side: socket errors,
	// unrepresentable destinations, a full coalescing ring, or frames still
	// pending when the underlay closed.
	SendDropped atomic.Uint64
	// RecvDelivered counts frames handed to the handler on this shard's
	// event loop. The receive counters above are the read loop's and
	// accrue to shard 0.
	RecvDelivered atomic.Uint64
	// Handoffs reads 0: with one read loop no frame arrives on a shard
	// other than the one it is handed to. It stays only because the
	// repository benchmark reads it by name, and goes with that benchmark's
	// next change.
	Handoffs atomic.Uint64
	// HandoffDrops counts frames dropped because the target shard's
	// handoff ring was full (overload; best-effort like IP).
	HandoffDrops atomic.Uint64
	// ControlSteers counts frames the receive-path classifier redirected
	// to the control shard (hellos, link-state, group-state) from a
	// sender homed elsewhere.
	ControlSteers atomic.Uint64
}

// Snapshot returns a consistent-enough copy of the counters.
func (s *WireStats) Snapshot() WireSnapshot {
	return WireSnapshot{
		RecvBatches: s.RecvBatches.Load(),
		RecvPackets: s.RecvPackets.Load(),
		RecvBytes:   s.RecvBytes.Load(),
		RecvUnknown: s.RecvUnknown.Load(),
		SendBatches: s.SendBatches.Load(),
		SendPackets: s.SendPackets.Load(),
		SendBytes:   s.SendBytes.Load(),
		SendDropped: s.SendDropped.Load(),

		RecvCoalesced: s.RecvCoalesced.Load(),
		SendSegmented: s.SendSegmented.Load(),
		RecvDelivered: s.RecvDelivered.Load(),
		Handoffs:      s.Handoffs.Load(),
		HandoffDrops:  s.HandoffDrops.Load(),
		ControlSteers: s.ControlSteers.Load(),
	}
}

// WireSnapshot is a point-in-time copy of WireStats.
type WireSnapshot struct {
	// RecvBatches counts receive wakeups.
	RecvBatches uint64
	// RecvPackets counts datagrams drained.
	RecvPackets uint64
	// RecvBytes counts bytes drained.
	RecvBytes uint64
	// RecvUnknown counts datagrams from unregistered senders.
	RecvUnknown uint64
	// SendBatches counts send flushes.
	SendBatches uint64
	// SendPackets counts datagrams handed to the kernel.
	SendPackets uint64
	// SendBytes counts bytes handed to the kernel.
	SendBytes uint64
	// SendDropped counts frames dropped on the send side.
	SendDropped uint64
	// RecvCoalesced counts datagrams that arrived inside a multi-datagram
	// message.
	RecvCoalesced uint64
	// SendSegmented counts datagrams that left inside a multi-datagram
	// message.
	SendSegmented uint64
	// RecvDelivered counts frames handed to the handler.
	RecvDelivered uint64
	// Handoffs reads 0 (see WireStats.Handoffs).
	Handoffs uint64
	// HandoffDrops counts frames dropped on a full handoff ring.
	HandoffDrops uint64
	// ControlSteers counts frames redirected to the control shard.
	ControlSteers uint64
}

// Merge returns the field-wise sum of two snapshots; a sharded underlay
// aggregates its per-shard counters with it. Summing per-shard snapshots
// is as consistent as one shard's own snapshot: every counter is read
// atomically, and in-flight frames may straddle any pair of counters
// either way.
func (s WireSnapshot) Merge(o WireSnapshot) WireSnapshot {
	return WireSnapshot{
		RecvBatches: s.RecvBatches + o.RecvBatches,
		RecvPackets: s.RecvPackets + o.RecvPackets,
		RecvBytes:   s.RecvBytes + o.RecvBytes,
		RecvUnknown: s.RecvUnknown + o.RecvUnknown,
		SendBatches: s.SendBatches + o.SendBatches,
		SendPackets: s.SendPackets + o.SendPackets,
		SendBytes:   s.SendBytes + o.SendBytes,
		SendDropped: s.SendDropped + o.SendDropped,

		RecvCoalesced: s.RecvCoalesced + o.RecvCoalesced,
		SendSegmented: s.SendSegmented + o.SendSegmented,
		RecvDelivered: s.RecvDelivered + o.RecvDelivered,
		Handoffs:      s.Handoffs + o.Handoffs,
		HandoffDrops:  s.HandoffDrops + o.HandoffDrops,
		ControlSteers: s.ControlSteers + o.ControlSteers,
	}
}

// RecvBatchAvg returns the mean datagrams drained per receive wakeup, or 0
// before the first wakeup.
func (s WireSnapshot) RecvBatchAvg() float64 {
	if s.RecvBatches == 0 {
		return 0
	}
	return float64(s.RecvPackets) / float64(s.RecvBatches)
}

// SendBatchAvg returns the mean datagrams per send flush, or 0 before the
// first flush.
func (s WireSnapshot) SendBatchAvg() float64 {
	if s.SendBatches == 0 {
		return 0
	}
	return float64(s.SendPackets) / float64(s.SendBatches)
}

// SchedStats counts fair-scheduler activity (§IV-B disciplines): packets
// accepted into per-flow queues, packets handed to the pacer, drops by
// cause, backpressure refusals signalled upstream, and flow-table
// occupancy. The counters are atomic: Node.SchedStats and
// Daemon.SchedStats promise reads from any goroutine, without a round trip
// to the loop. One stats instance is shared by every discipline instance
// on a shard, so the gauges aggregate across links.
//
// Accounting identity: every packet accepted into a queue is eventually
// transmitted, evicted by buffer policy, or discarded at Close, so at any
// quiesce point Enqueued == Transmitted + DropEvicted + DropClosed +
// Queued. Refusals (DropRefusedLow, DropFIFOOverflow, Backpressure) happen
// before a packet is accepted and sit outside the identity. The chaos
// engine's sched invariant asserts exactly this.
//
// The zero value is ready to use.
type SchedStats struct {
	// Enqueued counts packets accepted into a scheduler queue.
	Enqueued atomic.Uint64
	// Transmitted counts packets dequeued and handed to the pacer.
	Transmitted atomic.Uint64
	// DropEvicted counts stored packets evicted by the priority buffer
	// policy (oldest lowest-priority victim of a full flow).
	DropEvicted atomic.Uint64
	// DropRefusedLow counts arriving packets refused because they were
	// strictly lower priority than everything stored in their full flow.
	DropRefusedLow atomic.Uint64
	// DropFIFOOverflow counts packets refused by the unfair-baseline FIFO
	// when its total buffer was full (the DisableFairness ablation).
	DropFIFOOverflow atomic.Uint64
	// DropClosed counts queued packets discarded when a link closed.
	DropClosed atomic.Uint64
	// Backpressure counts reject-policy refusals of a saturated flow — the
	// typed signal propagated up to sessions and callers.
	Backpressure atomic.Uint64
	// FlowsRetired counts drained flows whose state was recycled to the
	// freelist (the idle-flow leak fix: one-shot sources do not linger).
	FlowsRetired atomic.Uint64
	// Queued gauges packets currently stored across all queues.
	Queued atomic.Int64
	// ActiveFlows gauges flows currently holding scheduler state.
	ActiveFlows atomic.Int64
	// FlowsPeak is the high-water mark of ActiveFlows.
	FlowsPeak atomic.Int64
}

// RecordFlowsPeak raises the high-water mark to n if it is higher.
func (s *SchedStats) RecordFlowsPeak(n int64) {
	for {
		cur := s.FlowsPeak.Load()
		if n <= cur || s.FlowsPeak.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Snapshot returns a consistent-enough copy of the counters.
func (s *SchedStats) Snapshot() SchedSnapshot {
	return SchedSnapshot{
		Enqueued:         s.Enqueued.Load(),
		Transmitted:      s.Transmitted.Load(),
		DropEvicted:      s.DropEvicted.Load(),
		DropRefusedLow:   s.DropRefusedLow.Load(),
		DropFIFOOverflow: s.DropFIFOOverflow.Load(),
		DropClosed:       s.DropClosed.Load(),
		Backpressure:     s.Backpressure.Load(),
		FlowsRetired:     s.FlowsRetired.Load(),
		Queued:           s.Queued.Load(),
		ActiveFlows:      s.ActiveFlows.Load(),
		FlowsPeak:        s.FlowsPeak.Load(),
	}
}

// SchedSnapshot is a point-in-time copy of SchedStats.
type SchedSnapshot struct {
	// Enqueued counts packets accepted into a scheduler queue.
	Enqueued uint64
	// Transmitted counts packets dequeued for transmission.
	Transmitted uint64
	// DropEvicted counts stored packets evicted by buffer policy.
	DropEvicted uint64
	// DropRefusedLow counts packets refused as lowest-priority newcomers.
	DropRefusedLow uint64
	// DropFIFOOverflow counts unfair-baseline FIFO overflow drops.
	DropFIFOOverflow uint64
	// DropClosed counts queued packets discarded at Close.
	DropClosed uint64
	// Backpressure counts reject-policy refusals signalled upstream.
	Backpressure uint64
	// FlowsRetired counts drained flows recycled to the freelist.
	FlowsRetired uint64
	// Queued gauges packets currently stored.
	Queued int64
	// ActiveFlows gauges flows currently holding state.
	ActiveFlows int64
	// FlowsPeak is the ActiveFlows high-water mark.
	FlowsPeak int64
}

// Merge returns the field-wise sum of two snapshots (gauges sum; FlowsPeak
// takes the max, a conservative per-shard bound). A node aggregating
// per-shard scheduler cores combines them with it.
func (s SchedSnapshot) Merge(o SchedSnapshot) SchedSnapshot {
	peak := s.FlowsPeak
	if o.FlowsPeak > peak {
		peak = o.FlowsPeak
	}
	return SchedSnapshot{
		Enqueued:         s.Enqueued + o.Enqueued,
		Transmitted:      s.Transmitted + o.Transmitted,
		DropEvicted:      s.DropEvicted + o.DropEvicted,
		DropRefusedLow:   s.DropRefusedLow + o.DropRefusedLow,
		DropFIFOOverflow: s.DropFIFOOverflow + o.DropFIFOOverflow,
		DropClosed:       s.DropClosed + o.DropClosed,
		Backpressure:     s.Backpressure + o.Backpressure,
		FlowsRetired:     s.FlowsRetired + o.FlowsRetired,
		Queued:           s.Queued + o.Queued,
		ActiveFlows:      s.ActiveFlows + o.ActiveFlows,
		FlowsPeak:        peak,
	}
}

// Balanced reports whether the drop-accounting identity holds: at a
// quiesce point every enqueued packet must be transmitted, evicted, or
// discarded at close, with the remainder still queued.
func (s SchedSnapshot) Balanced() bool {
	return s.Enqueued == s.Transmitted+s.DropEvicted+s.DropClosed+uint64(s.Queued)
}

// Dropped returns total packets lost to the scheduler by any cause.
func (s SchedSnapshot) Dropped() uint64 {
	return s.DropEvicted + s.DropRefusedLow + s.DropFIFOOverflow + s.DropClosed
}

// Latencies accumulates one-way delivery latencies for a flow.
//
// The zero value is ready to use.
type Latencies struct {
	samples []time.Duration
	sorted  bool
}

// Add records one delivery latency.
func (l *Latencies) Add(d time.Duration) {
	l.samples = append(l.samples, d)
	l.sorted = false
}

// Count returns the number of samples.
func (l *Latencies) Count() int { return len(l.samples) }

// Min returns the smallest sample, or zero when empty.
func (l *Latencies) Min() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	return l.samples[0]
}

// Max returns the largest sample, or zero when empty.
func (l *Latencies) Max() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	return l.samples[len(l.samples)-1]
}

// Mean returns the arithmetic mean, or zero when empty.
func (l *Latencies) Mean() time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range l.samples {
		sum += s
	}
	return sum / time.Duration(len(l.samples))
}

// Percentile returns the p-th percentile (p in [0,100]) using
// nearest-rank, or zero when empty.
func (l *Latencies) Percentile(p float64) time.Duration {
	if len(l.samples) == 0 {
		return 0
	}
	l.sort()
	if p <= 0 {
		return l.samples[0]
	}
	if p >= 100 {
		return l.samples[len(l.samples)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(l.samples))))
	if rank < 1 {
		rank = 1
	}
	return l.samples[rank-1]
}

// OnTime returns the fraction of samples at or under the deadline; it
// returns 0 when empty.
func (l *Latencies) OnTime(deadline time.Duration) float64 {
	if len(l.samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range l.samples {
		if s <= deadline {
			n++
		}
	}
	return float64(n) / float64(len(l.samples))
}

// Jitter returns the mean absolute difference between successive latency
// samples (RFC 3550-style smoothness indicator), or zero with fewer than
// two samples.
func (l *Latencies) Jitter() time.Duration {
	if len(l.samples) < 2 {
		return 0
	}
	var sum time.Duration
	for i := 1; i < len(l.samples); i++ {
		d := l.samples[i] - l.samples[i-1]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / time.Duration(len(l.samples)-1)
}

// Samples returns the recorded samples. They are in arrival order unless a
// summary statistic (Min, Max, Percentile) has already sorted them in
// place. The caller must not modify the returned slice.
func (l *Latencies) Samples() []time.Duration { return l.samples }

func (l *Latencies) sort() {
	if l.sorted {
		return
	}
	sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
	l.sorted = true
}

// FlowStats tracks end-to-end delivery accounting for one flow.
//
// The zero value is ready to use.
type FlowStats struct {
	// Sent counts packets the source emitted.
	Sent uint64
	// Received counts distinct packets delivered to the application.
	Received uint64
	// Duplicates counts redundant deliveries suppressed at the destination.
	Duplicates uint64
	// Late counts packets that arrived after their deadline and were
	// discarded.
	Late uint64
	// Latency holds per-delivery one-way latencies.
	Latency Latencies
}

// Table formats experiment output as fixed-width rows so every benchmark
// prints series the way the paper's evaluation would tabulate them.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case time.Duration:
			row[i] = fmtDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// fmtDuration renders durations in fractional milliseconds, the unit the
// paper reasons in.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}
