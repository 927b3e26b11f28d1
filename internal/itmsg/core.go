package itmsg

import (
	"math/bits"
	"time"

	"sonet/internal/metrics"
	"sonet/internal/wire"
)

// This file is the scheduling core behind the §IV-B fair disciplines:
// round-robin over an intrusive doubly-linked active list keyed by a
// dense flow index. It exists because the paper's tens-of-flows
// implementation (O(buffer) victim scans, O(sources) ring walks, O(flows)
// backlog probes, one Clone per stored packet) collapses at the 100k-flow
// edge fan-out the roadmap targets. Design (DESIGN.md §13):
//
//   - Flows live in a slice-backed arena recycled through a freelist; a
//     map-free chained hash table (bucket heads + per-flow next refs)
//     resolves (src,dst) to a dense index. No maps, no pointers, no
//     allocation on the steady-state hot path.
//   - One circular intrusive ring is threaded through the flow slots
//     themselves (prev/next refs) and served one packet per visit. The
//     ring holds exactly the backlogged flows, so a scheduling decision is
//     O(1): no idle-source skipping, no backlog scans. Priority orders
//     packets within a flow, never across flows — the paper's discipline.
//   - Per-flow queues are bounded chains of pooled entries holding a
//     pooled wire.Buf captured once at enqueue (wire.CapturePacket) —
//     no clones. Within a flow, entries are ordered by a short list of
//     priority lanes (FIFO within a lane, lanes sorted high→low), which
//     reproduces the seed discipline bit for bit: serve highest priority
//     oldest-first, evict oldest lowest-priority, refuse a newcomer only
//     when it is strictly lower priority than everything stored.
//   - Drained flows retire immediately to the freelist (metrics
//     FlowsRetired), fixing the seed's idle-source leak.
//
// A Core is single-threaded like every link protocol; one Core is built
// per discipline instance, and nothing is shared between instances except
// the (atomic) metrics.SchedStats sink — which is what makes the engine
// per-shard constructible for the sharded data plane.

// nilRef is the null value for dense int32 references.
const nilRef = int32(-1)

// OverflowPolicy selects what a full per-flow queue does with arrivals.
type OverflowPolicy uint8

const (
	// PolicyEvictLowest drops the flow's oldest lowest-priority stored
	// packet to admit the newcomer (IT-Priority, §IV-B), unless the
	// newcomer is strictly lower priority than everything stored — then it
	// is refused itself.
	PolicyEvictLowest OverflowPolicy = iota
	// PolicyReject refuses the newcomer and signals backpressure
	// (IT-Reliable, §IV-B).
	PolicyReject
)

// Outcome reports what Enqueue did with a packet.
type Outcome uint8

const (
	// Stored means the packet was queued.
	Stored Outcome = iota
	// StoredEvicted means the packet was queued after evicting the flow's
	// oldest lowest-priority packet.
	StoredEvicted
	// RefusedLow means the packet was dropped: its flow was full and it
	// was strictly lower priority than everything stored.
	RefusedLow
	// RefusedFull means the packet was refused by PolicyReject
	// backpressure: its flow's buffer is full.
	RefusedFull
	// RefusedFIFO means the unfair baseline's total buffer was full.
	RefusedFIFO
	// RefusedClosed means the core was already closed.
	RefusedClosed
)

// Accepted reports whether the packet was queued.
func (o Outcome) Accepted() bool { return o == Stored || o == StoredEvicted }

// CoreConfig parameterizes one scheduling core.
type CoreConfig struct {
	// FlowBuffer bounds stored packets per flow.
	FlowBuffer int
	// Policy selects the full-queue behaviour.
	Policy OverflowPolicy
	// FIFO replaces fair queueing with one bounded total-buffer FIFO —
	// the DisableFairness ablation.
	FIFO bool
	// TotalBuffer bounds the FIFO ablation's single queue.
	TotalBuffer int
	// Stats receives drop/backpressure accounting; nil gets a private
	// sink. One SchedStats may be shared by many cores (per-node
	// aggregation); the counters are atomic.
	Stats *metrics.SchedStats
}

// coreFlow is one flow's scheduler state: a slot in the dense arena.
// prev/next thread the circular service ring (nilRef when idle); hnext
// chains the hash bucket, and doubles as the freelist link while the slot
// is retired.
type coreFlow struct {
	key   uint32
	hnext int32
	prev  int32
	next  int32
	lanes int32
	qlen  int32
}

// coreLane is one priority level within a flow's queue: a FIFO chain of
// entries. A flow's lanes form a short list sorted high→low priority, so
// the head of the first lane is the service order's next packet and the
// head of the last lane is the eviction victim.
type coreLane struct {
	next int32
	head int32
	tail int32
	prio uint8
}

// coreEntry is one queued packet: header copied inline, bytes captured
// into a pooled buffer.
type coreEntry struct {
	next int32
	buf  *wire.Buf
	pkt  wire.Packet
}

// Core is the zero-allocation O(1) fair-scheduling engine. It is not
// safe for concurrent use; construct one per discipline instance (or per
// shard).
type Core struct {
	cfg CoreConfig

	flows    []coreFlow
	freeFlow int32
	buckets  []int32
	shift    uint
	nflows   int

	lanes    []coreLane
	freeLane int32

	entries   []coreEntry
	freeEntry int32

	// fifoQ is the unfair ablation's bounded ring of entry refs.
	fifoQ    []int32
	fifoHead int
	fifoLen  int

	// ring is the backlogged flow served next (nilRef when none is).
	ring    int32
	backlog int

	stats  *metrics.SchedStats
	closed bool

	// scratch receives the dequeued packet header; it is valid until the
	// next Dequeue, like every borrowed packet in the link layer.
	scratch wire.Packet
}

// NewCore returns a scheduling core.
func NewCore(cfg CoreConfig) *Core {
	if cfg.FlowBuffer <= 0 {
		cfg.FlowBuffer = DefaultSchedConfig().BufferPerSource
	}
	if cfg.TotalBuffer <= 0 {
		cfg.TotalBuffer = DefaultSchedConfig().TotalBuffer
	}
	c := &Core{
		cfg:       cfg,
		stats:     cfg.Stats,
		freeFlow:  nilRef,
		freeLane:  nilRef,
		freeEntry: nilRef,
		ring:      nilRef,
	}
	if c.stats == nil {
		c.stats = &metrics.SchedStats{}
	}
	c.rehash(256)
	return c
}

// Stats returns the core's accounting sink.
func (c *Core) Stats() *metrics.SchedStats { return c.stats }

// flowKeyBits packs a FlowKey into the dense hash key.
func flowKeyBits(key FlowKey) uint32 {
	return uint32(key.Src)<<16 | uint32(key.Dst)
}

func (c *Core) bucket(key uint32) int32 {
	h := uint64(key) * 0x9E3779B97F4A7C15
	return int32(h >> c.shift)
}

func (c *Core) rehash(n int) {
	old := c.buckets
	c.buckets = make([]int32, n)
	c.shift = uint(64 - bits.Len(uint(n-1)))
	for i := range c.buckets {
		c.buckets[i] = nilRef
	}
	for _, head := range old {
		for fi := head; fi != nilRef; {
			f := &c.flows[fi]
			next := f.hnext
			b := c.bucket(f.key)
			f.hnext = c.buckets[b]
			c.buckets[b] = fi
			fi = next
		}
	}
}

func (c *Core) lookup(key uint32) int32 {
	for fi := c.buckets[c.bucket(key)]; fi != nilRef; fi = c.flows[fi].hnext {
		if c.flows[fi].key == key {
			return fi
		}
	}
	return nilRef
}

// admit allocates and hash-inserts a flow slot (freelist first).
func (c *Core) admit(key uint32) int32 {
	var fi int32
	if c.freeFlow != nilRef {
		fi = c.freeFlow
		c.freeFlow = c.flows[fi].hnext
	} else {
		c.flows = append(c.flows, coreFlow{})
		fi = int32(len(c.flows) - 1)
	}
	f := &c.flows[fi]
	*f = coreFlow{key: key, prev: nilRef, next: nilRef, lanes: nilRef}
	if c.nflows+1 > len(c.buckets)*3/4 {
		c.rehash(len(c.buckets) * 2)
		f = &c.flows[fi]
	}
	b := c.bucket(key)
	f.hnext = c.buckets[b]
	c.buckets[b] = fi
	c.nflows++
	n := c.stats.ActiveFlows.Add(1)
	c.stats.RecordFlowsPeak(n)
	return fi
}

// retire hash-removes a drained flow and recycles its slot.
func (c *Core) retire(fi int32) {
	f := &c.flows[fi]
	b := c.bucket(f.key)
	if c.buckets[b] == fi {
		c.buckets[b] = f.hnext
	} else {
		p := c.buckets[b]
		for c.flows[p].hnext != fi {
			p = c.flows[p].hnext
		}
		c.flows[p].hnext = f.hnext
	}
	c.nflows--
	f.hnext = c.freeFlow
	c.freeFlow = fi
	c.stats.ActiveFlows.Add(-1)
	c.stats.FlowsRetired.Add(1)
}

// activate links a newly backlogged flow into the ring, just behind the
// current service position — it is served at the tail of the round in
// progress, which is what keeps a reactivating flow from jumping the
// queue.
func (c *Core) activate(fi int32) {
	f := &c.flows[fi]
	if c.ring == nilRef {
		f.prev, f.next = fi, fi
		c.ring = fi
		return
	}
	cur := c.ring
	prev := c.flows[cur].prev
	f.prev, f.next = prev, cur
	c.flows[prev].next = fi
	c.flows[cur].prev = fi
}

// deactivate unlinks a drained flow from the ring.
func (c *Core) deactivate(fi int32) {
	f := &c.flows[fi]
	if f.next == fi {
		c.ring = nilRef
	} else {
		c.flows[f.prev].next = f.next
		c.flows[f.next].prev = f.prev
		if c.ring == fi {
			c.ring = f.next
		}
	}
	f.prev, f.next = nilRef, nilRef
}

func (c *Core) allocEntry() int32 {
	if c.freeEntry != nilRef {
		ei := c.freeEntry
		c.freeEntry = c.entries[ei].next
		return ei
	}
	c.entries = append(c.entries, coreEntry{})
	return int32(len(c.entries) - 1)
}

func (c *Core) freeEntrySlot(ei int32) {
	e := &c.entries[ei]
	e.buf = nil
	e.pkt = wire.Packet{}
	e.next = c.freeEntry
	c.freeEntry = ei
}

func (c *Core) allocLane(prio uint8) int32 {
	if c.freeLane != nilRef {
		li := c.freeLane
		c.freeLane = c.lanes[li].next
		c.lanes[li] = coreLane{next: nilRef, head: nilRef, tail: nilRef, prio: prio}
		return li
	}
	c.lanes = append(c.lanes, coreLane{next: nilRef, head: nilRef, tail: nilRef, prio: prio})
	return int32(len(c.lanes) - 1)
}

func (c *Core) freeLaneSlot(li int32) {
	c.lanes[li].next = c.freeLane
	c.freeLane = li
}

// store captures p into a pooled entry and appends it to the flow's lane
// for its priority, creating the lane in sorted position if absent. The
// walk is O(distinct queued priorities of this flow) — one step in the
// uniform-priority case.
func (c *Core) store(fi int32, p *wire.Packet) {
	prev := nilRef
	li := c.flows[fi].lanes
	for li != nilRef && c.lanes[li].prio > p.Priority {
		prev = li
		li = c.lanes[li].next
	}
	if li == nilRef || c.lanes[li].prio != p.Priority {
		nl := c.allocLane(p.Priority)
		c.lanes[nl].next = li
		if prev == nilRef {
			c.flows[fi].lanes = nl
		} else {
			c.lanes[prev].next = nl
		}
		li = nl
	}
	ei := c.allocEntry()
	e := &c.entries[ei]
	e.next = nilRef
	e.buf = wire.CapturePacket(&e.pkt, p, wire.DefaultBufPool)
	ln := &c.lanes[li]
	if ln.head == nilRef {
		ln.head = ei
	} else {
		c.entries[ln.tail].next = ei
	}
	ln.tail = ei

	f := &c.flows[fi]
	f.qlen++
	c.backlog++
	if f.next == nilRef {
		c.activate(fi)
	}
	c.stats.Enqueued.Add(1)
	c.stats.Queued.Add(1)
}

// Enqueue applies the buffer-allocation policy to p for the given flow
// and queues it on acceptance. The packet is borrowed: its bytes are
// captured into a pooled buffer.
func (c *Core) Enqueue(key FlowKey, p *wire.Packet) Outcome {
	if c.closed {
		return RefusedClosed
	}
	if c.cfg.FIFO {
		return c.enqueueFIFO(p)
	}
	k := flowKeyBits(key)
	fi := c.lookup(k)
	if fi == nilRef {
		fi = c.admit(k)
	}
	outcome := Stored
	if int(c.flows[fi].qlen) >= c.cfg.FlowBuffer {
		if c.cfg.Policy == PolicyReject {
			// Backpressure: refuse new messages for the saturated flow.
			c.stats.Backpressure.Add(1)
			return RefusedFull
		}
		// Evict the oldest lowest-priority message of this flow — the head
		// of the last lane; if the newcomer is strictly lower priority than
		// everything stored, it is itself the drop victim.
		prev := nilRef
		li := c.flows[fi].lanes
		for c.lanes[li].next != nilRef {
			prev = li
			li = c.lanes[li].next
		}
		if p.Priority < c.lanes[li].prio {
			c.stats.DropRefusedLow.Add(1)
			return RefusedLow
		}
		c.evictHead(fi, li, prev)
		outcome = StoredEvicted
	}
	c.store(fi, p)
	return outcome
}

// evictHead drops the head entry of lane li (whose predecessor in the
// flow's lane list is prev), releasing its captured buffer.
func (c *Core) evictHead(fi, li, prev int32) {
	ln := &c.lanes[li]
	ei := ln.head
	e := &c.entries[ei]
	ln.head = e.next
	if ln.head == nilRef {
		if prev == nilRef {
			c.flows[fi].lanes = ln.next
		} else {
			c.lanes[prev].next = ln.next
		}
		c.freeLaneSlot(li)
	}
	if e.buf != nil {
		e.buf.Release()
	}
	c.freeEntrySlot(ei)
	c.flows[fi].qlen--
	c.backlog--
	c.stats.DropEvicted.Add(1)
	c.stats.Queued.Add(-1)
}

func (c *Core) enqueueFIFO(p *wire.Packet) Outcome {
	if c.fifoLen >= c.cfg.TotalBuffer {
		c.stats.DropFIFOOverflow.Add(1)
		return RefusedFIFO
	}
	if c.fifoQ == nil {
		// The ablation's ring is bounded by construction — the seed's
		// fifo[1:] slice leak cannot recur.
		c.fifoQ = make([]int32, c.cfg.TotalBuffer)
	}
	ei := c.allocEntry()
	e := &c.entries[ei]
	e.buf = wire.CapturePacket(&e.pkt, p, wire.DefaultBufPool)
	c.fifoQ[(c.fifoHead+c.fifoLen)%len(c.fifoQ)] = ei
	c.fifoLen++
	c.backlog++
	c.stats.Enqueued.Add(1)
	c.stats.Queued.Add(1)
	return Stored
}

// Dequeue removes the next packet under the service discipline:
// round-robin across the backlogged flows, one packet per visit, highest
// priority oldest-first within a flow. The returned packet header points
// at core-owned scratch, valid until the next Dequeue; buf (possibly nil)
// is the pooled backing of its byte fields, and ownership transfers to
// the caller, who must Release it — or hand it on — once the packet is
// done. The time argument is unused: bench/layers_ladder.go calls
// Dequeue(0), so it stays until a benchmark PR can drop it.
func (c *Core) Dequeue(time.Duration) (*wire.Packet, *wire.Buf, bool) {
	if c.cfg.FIFO {
		return c.dequeueFIFO()
	}
	fi := c.ring
	if fi == nilRef {
		return nil, nil, false
	}
	f := &c.flows[fi]
	li := f.lanes
	ln := &c.lanes[li]
	ei := ln.head
	e := &c.entries[ei]
	ln.head = e.next
	if ln.head == nilRef {
		f.lanes = ln.next
		c.freeLaneSlot(li)
	}
	f.qlen--
	if f.qlen == 0 {
		c.deactivate(fi)
		c.retire(fi)
	} else {
		c.ring = f.next
	}
	return c.transmit(ei)
}

// transmit hands queued entry ei to Dequeue's caller and recycles its slot.
func (c *Core) transmit(ei int32) (*wire.Packet, *wire.Buf, bool) {
	e := &c.entries[ei]
	c.scratch = e.pkt
	buf := e.buf
	c.freeEntrySlot(ei)
	c.backlog--
	c.stats.Transmitted.Add(1)
	c.stats.Queued.Add(-1)
	return &c.scratch, buf, true
}

func (c *Core) dequeueFIFO() (*wire.Packet, *wire.Buf, bool) {
	if c.fifoLen == 0 {
		return nil, nil, false
	}
	ei := c.fifoQ[c.fifoHead]
	c.fifoHead = (c.fifoHead + 1) % len(c.fifoQ)
	c.fifoLen--
	return c.transmit(ei)
}

// Backlog returns the total number of queued packets.
func (c *Core) Backlog() int { return c.backlog }

// ActiveFlows returns the number of flows currently holding state.
func (c *Core) ActiveFlows() int { return c.nflows }

// FlowSlots returns the flow arena capacity — bounded-state tests assert
// it tracks peak concurrent flows, not cumulative flow count.
func (c *Core) FlowSlots() int { return len(c.flows) }

// EntrySlots returns the entry arena capacity (peak queued packets).
func (c *Core) EntrySlots() int { return len(c.entries) }

// Close drains every queue, releasing captured buffers and accounting the
// discarded packets as DropClosed. A closed core refuses Enqueue.
func (c *Core) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for c.fifoLen > 0 {
		ei := c.fifoQ[c.fifoHead]
		c.fifoHead = (c.fifoHead + 1) % len(c.fifoQ)
		c.fifoLen--
		c.dropEntryClosed(ei)
	}
	for b := range c.buckets {
		for fi := c.buckets[b]; fi != nilRef; {
			f := &c.flows[fi]
			for li := f.lanes; li != nilRef; li = c.lanes[li].next {
				for ei := c.lanes[li].head; ei != nilRef; {
					next := c.entries[ei].next
					c.dropEntryClosed(ei)
					ei = next
				}
			}
			fi = f.hnext
		}
		c.buckets[b] = nilRef
	}
	c.stats.ActiveFlows.Add(-int64(c.nflows))
	c.nflows = 0
	c.flows = c.flows[:0]
	c.lanes = c.lanes[:0]
	c.freeFlow, c.freeLane = nilRef, nilRef
	c.ring = nilRef
	c.backlog = 0
}

func (c *Core) dropEntryClosed(ei int32) {
	e := &c.entries[ei]
	if e.buf != nil {
		e.buf.Release()
	}
	e.buf = nil
	e.pkt = wire.Packet{}
	c.stats.DropClosed.Add(1)
	c.stats.Queued.Add(-1)
}
