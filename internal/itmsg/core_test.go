package itmsg

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sonet/internal/metrics"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

func corePacket(src, dst wire.NodeID, seq uint32, prio uint8) *wire.Packet {
	return &wire.Packet{
		Type: wire.PTData, Route: wire.RouteLinkState,
		Src: src, Dst: dst, FlowSeq: seq, Priority: prio,
		Payload: []byte{byte(seq), byte(seq >> 8), byte(seq >> 16)},
	}
}

// queued returns a flow's queue depth, read off the core's flow table.
func queued(c *Core, key FlowKey) int {
	if fi := c.lookup(flowKeyBits(key)); fi != nilRef {
		return int(c.flows[fi].qlen)
	}
	return 0
}

// full reports whether a flow holds all the packets its buffer allows, the
// backpressure an upstream hop or source sees.
func full(c *Core, key FlowKey) bool { return queued(c, key) >= c.cfg.FlowBuffer }

func drainCore(c *Core) []wire.Packet {
	var out []wire.Packet
	for {
		p, buf, ok := c.Dequeue(0)
		if !ok {
			return out
		}
		out = append(out, *p)
		if buf != nil {
			buf.Release()
		}
	}
}

// TestCoreChurnBoundedState is the idle-flow leak regression: 10k one-shot
// sources pass through the scheduler, and the flow arena must stay tiny —
// the seed implementation retained every source forever and scanned all of
// them on every dequeue.
func TestCoreChurnBoundedState(t *testing.T) {
	for _, policy := range []OverflowPolicy{PolicyEvictLowest, PolicyReject} {
		c := NewCore(CoreConfig{FlowBuffer: 8, Policy: policy})
		const churn = 10000
		for i := 0; i < churn; i++ {
			key := FlowKey{Src: wire.NodeID(i%60000 + 1), Dst: 7}
			if got := c.Enqueue(key, corePacket(key.Src, 7, uint32(i), 0)); got != Stored {
				t.Fatalf("policy %v: enqueue %d: outcome %v", policy, i, got)
			}
			p, buf, ok := c.Dequeue(0)
			if !ok || p.FlowSeq != uint32(i) {
				t.Fatalf("policy %v: dequeue %d: ok=%v", policy, i, ok)
			}
			if buf != nil {
				buf.Release()
			}
		}
		if got := c.ActiveFlows(); got != 0 {
			t.Fatalf("policy %v: %d flows still active after churn", policy, got)
		}
		if got := c.FlowSlots(); got > 4 {
			t.Fatalf("policy %v: flow arena grew to %d slots for 1 concurrent flow", policy, got)
		}
		if got := c.EntrySlots(); got > 4 {
			t.Fatalf("policy %v: entry arena grew to %d slots for 1 queued packet", policy, got)
		}
		st := c.Stats().Snapshot()
		if st.FlowsRetired != churn {
			t.Fatalf("policy %v: FlowsRetired = %d, want %d", policy, st.FlowsRetired, churn)
		}
		if !st.Balanced() {
			t.Fatalf("policy %v: accounting identity violated: %+v", policy, st)
		}
	}
}

// TestCoreFIFOBoundedRing is the unfair-baseline leak regression: the seed
// ablation advanced the FIFO with fifo[1:], pinning the consumed prefix of
// an ever-growing backing array. The ring must hold exactly TotalBuffer
// slots no matter how many packets cycle through.
func TestCoreFIFOBoundedRing(t *testing.T) {
	c := NewCore(CoreConfig{FIFO: true, TotalBuffer: 32})
	for i := 0; i < 5000; i++ {
		if got := c.Enqueue(FlowKey{}, corePacket(1, 2, uint32(i), 0)); got != Stored {
			t.Fatalf("enqueue %d: outcome %v", i, got)
		}
		p, buf, ok := c.Dequeue(0)
		if !ok || p.FlowSeq != uint32(i) {
			t.Fatalf("dequeue %d: ok=%v", i, ok)
		}
		if buf != nil {
			buf.Release()
		}
	}
	if got := len(c.fifoQ); got != 32 {
		t.Fatalf("FIFO ring length %d, want TotalBuffer (32)", got)
	}
	if got := c.EntrySlots(); got > 2 {
		t.Fatalf("entry arena grew to %d for 1 queued packet", got)
	}
	// Overflow still refuses and accounts.
	for i := 0; i < 40; i++ {
		c.Enqueue(FlowKey{}, corePacket(1, 2, uint32(i), 0))
	}
	st := c.Stats().Snapshot()
	if st.DropFIFOOverflow != 8 {
		t.Fatalf("DropFIFOOverflow = %d, want 8", st.DropFIFOOverflow)
	}
}

// TestCoreFairShareUnderAttack is the fairness property test: with every
// flow continuously backlogged and an attacker flooding at 100 times the
// honest arrival rate, each flow's service share must stay within epsilon
// of an equal share — the §IV-B guarantee, at randomized flow counts,
// under both overflow policies.
func TestCoreFairShareUnderAttack(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		policy := PolicyEvictLowest
		if trial%2 == 1 {
			policy = PolicyReject
		}
		nHonest := 2 + rng.Intn(24)
		c := NewCore(CoreConfig{FlowBuffer: 8, Policy: policy})
		attacker := FlowKey{Src: 60001, Dst: 1}
		flows := make([]FlowKey, nHonest+1)
		for i := range flows {
			flows[i] = FlowKey{Src: wire.NodeID(i + 1), Dst: 1}
		}
		flows[nHonest] = attacker
		honest := flows[:nHonest]

		served := make(map[FlowKey]int)
		seq := uint32(0)
		const rounds = 300
		for round := 0; round < rounds; round++ {
			// The attacker floods 100× the aggregate honest rate; honest
			// flows replenish just above their fair share to stay backlogged.
			for i := 0; i < 100*len(flows); i++ {
				seq++
				c.Enqueue(attacker, corePacket(attacker.Src, 1, seq, 0))
			}
			for _, h := range honest {
				for i := 0; i < 2; i++ {
					seq++
					c.Enqueue(h, corePacket(h.Src, 1, seq, 0))
				}
			}
			// The paced link serves exactly one round of capacity.
			for range flows {
				p, buf, ok := c.Dequeue(0)
				if !ok {
					t.Fatalf("trial %d: link idle with backlog", trial)
				}
				served[FlowKey{Src: p.Src, Dst: p.Dst}]++
				releaseBuf(buf)
			}
		}
		for _, key := range flows {
			// Slack: round quantization plus the start-up transient. It
			// also confines the attacker: its 100× flood bought it nothing.
			if got := served[key]; got < rounds-2 || got > rounds+2 {
				t.Fatalf("trial %d (policy %v, %d flows): flow %v served %d, fair share %d",
					trial, policy, len(flows), key, got, rounds)
			}
		}
	}
}

// seedPrioRef is a faithful port of the seed PriorityLink buffer policy
// (map of per-source slices, O(n) victim scans, cloned entries) used as
// the bit-exactness oracle for drop/eviction order.
type seedPrioRef struct {
	buffer  int
	bufs    map[wire.NodeID][]seedEntry
	order   []wire.NodeID
	next    int
	enqSeq  uint64
	evicted uint64
}

type seedEntry struct {
	prio    uint8
	seq     uint64
	flowSeq uint32
}

func newSeedPrioRef(buffer int) *seedPrioRef {
	return &seedPrioRef{buffer: buffer, bufs: make(map[wire.NodeID][]seedEntry)}
}

func (l *seedPrioRef) send(src wire.NodeID, flowSeq uint32, prio uint8) bool {
	b, ok := l.bufs[src]
	if !ok {
		l.bufs[src] = nil
		l.order = append(l.order, src)
	}
	l.enqSeq++
	if len(b) >= l.buffer {
		victim := -1
		for i, e := range b {
			if victim == -1 || e.prio < b[victim].prio ||
				(e.prio == b[victim].prio && e.seq < b[victim].seq) {
				victim = i
			}
		}
		if victim >= 0 && prio < b[victim].prio {
			l.evicted++
			return false
		}
		b = append(b[:victim], b[victim+1:]...)
		l.evicted++
	}
	l.bufs[src] = append(b, seedEntry{prio: prio, seq: l.enqSeq, flowSeq: flowSeq})
	return true
}

func (l *seedPrioRef) dequeue() (uint32, bool) {
	for range l.order {
		src := l.order[l.next%len(l.order)]
		l.next++
		b := l.bufs[src]
		if len(b) == 0 {
			continue
		}
		best := 0
		for i, e := range b {
			if e.prio > b[best].prio || (e.prio == b[best].prio && e.seq < b[best].seq) {
				best = i
			}
		}
		fs := b[best].flowSeq
		l.bufs[src] = append(b[:best], b[best+1:]...)
		return fs, true
	}
	return 0, false
}

// TestCoreBitExactSingleSource model-checks the DRR core's within-flow
// semantics against the seed scheduler: randomized priorities into one
// source, then a full drain — acceptance decisions, eviction counts, and
// the exact dequeue order must match packet for packet.
func TestCoreBitExactSingleSource(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		buffer := 1 + rng.Intn(12)
		c := NewCore(CoreConfig{FlowBuffer: buffer, Policy: PolicyEvictLowest})
		ref := newSeedPrioRef(buffer)
		key := FlowKey{Src: 3}
		n := 5 + rng.Intn(60)
		for i := 0; i < n; i++ {
			prio := uint8(rng.Intn(5))
			refStored := ref.send(3, uint32(i), prio)
			got := c.Enqueue(key, corePacket(3, 0, uint32(i), prio))
			if got.Accepted() != refStored {
				t.Fatalf("trial %d: packet %d (prio %d): core %v, seed stored=%v",
					trial, i, prio, got, refStored)
			}
		}
		coreOrder := drainCore(c)
		for i := range coreOrder {
			refFS, ok := ref.dequeue()
			if !ok {
				t.Fatalf("trial %d: core served %d extra packets", trial, len(coreOrder)-i)
			}
			if coreOrder[i].FlowSeq != refFS {
				t.Fatalf("trial %d: dequeue %d: core FlowSeq %d, seed %d",
					trial, i, coreOrder[i].FlowSeq, refFS)
			}
		}
		if _, ok := ref.dequeue(); ok {
			t.Fatalf("trial %d: seed has packets the core dropped", trial)
		}
		if st := c.Stats().Snapshot(); st.DropEvicted+st.DropRefusedLow != ref.evicted {
			t.Fatalf("trial %d: core dropped %d, seed evicted %d",
				trial, st.DropEvicted+st.DropRefusedLow, ref.evicted)
		}
	}
}

// TestCoreBitExactMultiSource model-checks the cross-flow service order:
// several sources prefilled past their buffers, then drained — the DRR
// ring with unit quanta must reproduce the seed's round-robin (including
// the order in which drained sources leave the rotation) exactly.
func TestCoreBitExactMultiSource(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		buffer := 1 + rng.Intn(6)
		nSrc := 2 + rng.Intn(6)
		c := NewCore(CoreConfig{FlowBuffer: buffer, Policy: PolicyEvictLowest})
		ref := newSeedPrioRef(buffer)
		seq := uint32(0)
		for i := 0; i < nSrc*(buffer+3); i++ {
			src := wire.NodeID(rng.Intn(nSrc) + 1)
			prio := uint8(rng.Intn(3))
			seq++
			refStored := ref.send(src, seq, prio)
			got := c.Enqueue(FlowKey{Src: src}, corePacket(src, 0, seq, prio))
			if got.Accepted() != refStored {
				t.Fatalf("trial %d: enq %d: core %v vs seed %v", trial, seq, got, refStored)
			}
		}
		coreOrder := drainCore(c)
		for i := range coreOrder {
			refFS, ok := ref.dequeue()
			if !ok || coreOrder[i].FlowSeq != refFS {
				t.Fatalf("trial %d: dequeue %d: core FlowSeq %d, seed %d (ok=%v)",
					trial, i, coreOrder[i].FlowSeq, refFS, ok)
			}
		}
		if _, ok := ref.dequeue(); ok {
			t.Fatalf("trial %d: seed still backlogged after core drained", trial)
		}
	}
}

// TestCoreRejectPolicyBitExact checks the reliable-fair policy against its
// seed semantics: per-flow FIFO, refusal (not eviction) on overflow.
func TestCoreRejectPolicyBitExact(t *testing.T) {
	c := NewCore(CoreConfig{FlowBuffer: 3, Policy: PolicyReject})
	key := FlowKey{Src: 1, Dst: 9}
	for i := 0; i < 5; i++ {
		got := c.Enqueue(key, corePacket(1, 9, uint32(i), 0))
		if want := i < 3; got.Accepted() != want {
			t.Fatalf("enqueue %d: outcome %v, want accepted=%v", i, got, want)
		}
	}
	order := drainCore(c)
	if len(order) != 3 {
		t.Fatalf("drained %d packets, want 3", len(order))
	}
	for i, p := range order {
		if p.FlowSeq != uint32(i) {
			t.Fatalf("dequeue %d: FlowSeq %d (FIFO violated)", i, p.FlowSeq)
		}
	}
	if st := c.Stats().Snapshot(); st.Backpressure != 2 {
		t.Fatalf("Backpressure = %d, want 2", st.Backpressure)
	}
}

func releaseBuf(b *wire.Buf) {
	if b != nil {
		b.Release()
	}
}

// TestCoreCloseAccounting checks that Close releases every captured
// buffer and the accounting identity closes with DropClosed.
func TestCoreCloseAccounting(t *testing.T) {
	stats := &metrics.SchedStats{}
	c := NewCore(CoreConfig{FlowBuffer: 16, Stats: stats})
	for i := 0; i < 10; i++ {
		c.Enqueue(FlowKey{Src: wire.NodeID(i%3 + 1)}, corePacket(wire.NodeID(i%3+1), 0, uint32(i), uint8(i%4)))
	}
	p, buf, _ := c.Dequeue(0)
	if p == nil {
		t.Fatal("dequeue failed")
	}
	releaseBuf(buf)
	c.Close()
	st := stats.Snapshot()
	if st.DropClosed != 9 || st.Queued != 0 || st.ActiveFlows != 0 {
		t.Fatalf("close accounting wrong: %+v", st)
	}
	if !st.Balanced() {
		t.Fatalf("accounting identity violated after close: %+v", st)
	}
	if got := c.Enqueue(FlowKey{Src: 1}, corePacket(1, 0, 99, 0)); got != RefusedClosed {
		t.Fatalf("enqueue after close: %v", got)
	}
}

// TestCoreDequeuePayloadIntegrity checks the capture path end to end: the
// dequeued packet's bytes must match what was enqueued even though they
// ride a shared pooled buffer, and the header must survive the enqueuing
// packet being reused.
func TestCoreDequeuePayloadIntegrity(t *testing.T) {
	c := NewCore(CoreConfig{FlowBuffer: 16})
	scratch := corePacket(5, 6, 1, 3)
	scratch.Payload = []byte("payload-one")
	scratch.Sig = []byte("sig-1")
	c.Enqueue(FlowKey{Src: 5, Dst: 6}, scratch)
	// Reuse the caller's packet — the core must have captured a copy.
	*scratch = wire.Packet{}
	p, buf, ok := c.Dequeue(0)
	if !ok {
		t.Fatal("dequeue failed")
	}
	if string(p.Payload) != "payload-one" || string(p.Sig) != "sig-1" {
		t.Fatalf("captured bytes corrupted: payload %q sig %q", p.Payload, p.Sig)
	}
	if p.Src != 5 || p.Dst != 6 || p.Priority != 3 || p.FlowSeq != 1 {
		t.Fatalf("captured header corrupted: %+v", p)
	}
	if buf == nil {
		t.Fatal("expected a backing buffer for a packet with bytes")
	}
	buf.Release()
}

// TestPriorityLinkIdleSourceRetirement is the discipline-level leak
// regression: one-shot sources through a paced PriorityLink must not
// accumulate scheduler state.
func TestPriorityLinkIdleSourceRetirement(t *testing.T) {
	sched := sim.NewScheduler(1)
	l, _, _ := newPriorityPair(sched, SchedConfig{Rate: 10000, BufferPerSource: 8})
	const churn = 2000
	for i := 0; i < churn; i++ {
		l.Send(srcPacket(wire.NodeID(i%50000+1), uint32(i), 0))
		sched.RunFor(time.Millisecond) // pacer drains between arrivals
	}
	if got := l.core.ActiveFlows(); got != 0 {
		t.Fatalf("%d sources still hold state after drain", got)
	}
	if got := l.core.FlowSlots(); got > 8 {
		t.Fatalf("flow arena grew to %d slots under one-shot churn", got)
	}
	if st := l.core.Stats().Snapshot(); st.FlowsRetired != churn {
		t.Fatalf("FlowsRetired = %d, want %d", st.FlowsRetired, churn)
	}
	l.Close()
}

// TestTrySendBackpressure checks the typed refusal on both disciplines.
func TestTrySendBackpressure(t *testing.T) {
	sched := sim.NewScheduler(1)
	rl, _, _, _ := newReliableFairPair(sched, SchedConfig{Rate: 1000, BufferPerSource: 2})
	for i := 0; i < 2; i++ {
		if err := rl.TrySend(flowPacket(1, 2, uint32(i))); err != nil {
			t.Fatalf("send %d refused early: %v", i, err)
		}
	}
	if err := rl.TrySend(flowPacket(1, 2, 9)); err == nil {
		t.Fatal("saturated flow accepted")
	}
	// A different flow still has its full share.
	if err := rl.TrySend(flowPacket(3, 2, 1)); err != nil {
		t.Fatalf("independent flow refused: %v", err)
	}
	rl.Close()

	pl, _, _ := newPriorityPair(sched, SchedConfig{Rate: 1000, BufferPerSource: 2, DisableFairness: true, TotalBuffer: 2})
	pl.Send(srcPacket(1, 1, 0))
	pl.Send(srcPacket(1, 2, 0))
	if err := pl.TrySend(srcPacket(1, 3, 0)); err == nil {
		t.Fatal("full FIFO accepted")
	}
	pl.Close()
}

// TestCoreHashGrowth pushes enough concurrent flows through the core to
// force several hash-table rehashes and checks lookups stay coherent.
func TestCoreHashGrowth(t *testing.T) {
	c := NewCore(CoreConfig{FlowBuffer: 4})
	const n = 5000
	for i := 0; i < n; i++ {
		key := FlowKey{Src: wire.NodeID(i/256 + 1), Dst: wire.NodeID(i % 256)}
		c.Enqueue(key, corePacket(key.Src, key.Dst, uint32(i), 0))
	}
	if got := c.ActiveFlows(); got != n {
		t.Fatalf("ActiveFlows = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		key := FlowKey{Src: wire.NodeID(i/256 + 1), Dst: wire.NodeID(i % 256)}
		if got := queued(c, key); got != 1 {
			t.Fatalf("flow %d: queue depth %d, want 1", i, got)
		}
	}
	if got := len(drainCore(c)); got != n {
		t.Fatalf("drained %d, want %d", got, n)
	}
	if got := c.ActiveFlows(); got != 0 {
		t.Fatalf("ActiveFlows = %d after drain", got)
	}
	st := c.Stats().Snapshot()
	if st.FlowsPeak != n {
		t.Fatalf("FlowsPeak = %d, want %d", st.FlowsPeak, n)
	}
}

// TestCoreStarvationSweep runs the EXP-FAIR starvation shape at scheduler
// scale in-process: at 1k, 10k, and (with -short, skipped) 100k active
// flows, one attacker flooding 100× must not displace honest service.
func TestCoreStarvationSweep(t *testing.T) {
	sweep := []struct{ flows, rounds int }{{1000, 64}, {10000, 16}}
	if !testing.Short() {
		sweep = append(sweep, struct{ flows, rounds int }{100000, 4})
	}
	for _, pt := range sweep {
		t.Run(fmt.Sprintf("flows=%d", pt.flows), func(t *testing.T) {
			res := StarvationSweep(pt.flows, pt.rounds)
			if !res.Holds() {
				t.Fatalf("starvation shape violated at %d flows: %+v", pt.flows, res)
			}
		})
	}
}

// ---- DRR core benchmark and allocation budget ----

// schedBenchKey spreads i across distinct (src, dst) flow identities.
func schedBenchKey(i int) FlowKey {
	return FlowKey{Src: wire.NodeID(i%60000 + 1), Dst: wire.NodeID(i / 60000)}
}

// schedDecision returns one steady-state scheduling decision — dequeue the
// next fair packet, re-enqueue into the same flow — over a core with n
// concurrently backlogged flows, two byteless packets deep each.
func schedDecision(tb testing.TB, n int) func() {
	c := NewCore(CoreConfig{FlowBuffer: 4})
	p := wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState}
	for i := 0; i < n; i++ {
		k := schedBenchKey(i)
		p.Src, p.Dst = k.Src, k.Dst
		c.Enqueue(k, &p)
		c.Enqueue(k, &p)
	}
	return func() {
		p, _, ok := c.Dequeue(0)
		if !ok {
			tb.Fatal("scheduler idle with backlog")
		}
		c.Enqueue(FlowKey{Src: p.Src, Dst: p.Dst}, p)
	}
}

// schedChurn returns the full admit→serve→retire lifecycle of a one-shot
// flow, cycling through the given number of flow identities.
func schedChurn(tb testing.TB, keys int) func() {
	c := NewCore(CoreConfig{FlowBuffer: 4})
	p := wire.Packet{Type: wire.PTData}
	i := 0
	return func() {
		i++
		k := schedBenchKey(i % keys)
		p.Src, p.Dst = k.Src, k.Dst
		c.Enqueue(k, &p)
		if _, _, ok := c.Dequeue(0); !ok {
			tb.Fatal("scheduler idle")
		}
	}
}

// BenchmarkSched measures one scheduling decision with 1k, 10k, and 100k
// flows concurrently backlogged. The §IV-B engine is O(1) per decision:
// ns/op must not grow with the flow count (the seed scanned every source
// per dequeue, ~O(n)). The churn variant measures one-shot flows.
func BenchmarkSched(b *testing.B) {
	loop := func(b *testing.B, op func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op()
		}
	}
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) { loop(b, schedDecision(b, n)) })
	}
	b.Run("churn", func(b *testing.B) { loop(b, schedChurn(b, 50000)) })
}

// TestSchedAllocBudget guards the zero-allocation contract of the DRR
// core (`make bench-guard`): a warmed steady-state decision must not
// allocate at 1k or 100k backlogged flows, and neither must the one-shot
// flow admit/retire cycle.
func TestSchedAllocBudget(t *testing.T) {
	for _, n := range []int{1000, 100000} {
		step := schedDecision(t, n)
		for i := 0; i < 256; i++ {
			step()
		}
		if avg := testing.AllocsPerRun(200, step); avg > 0 {
			t.Fatalf("n=%d: steady-state decision allocates %.2f allocs/op, budget is 0", n, avg)
		}
	}
	churn := schedChurn(t, 1024)
	for j := 0; j < 2048; j++ {
		churn() // warm the flow arena, entry pool, and hash table
	}
	if avg := testing.AllocsPerRun(200, churn); avg > 0 {
		t.Fatalf("flow churn allocates %.2f allocs/op, budget is 0", avg)
	}
}
