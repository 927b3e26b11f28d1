package session

import (
	"context"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"sonet/internal/node"
	"sonet/internal/seqno"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// refTick is a reliable flow's destination as it recovered gaps before
// the recovery queue: a 100 ms tick, armed when a gap is seen and re-armed
// while one is open, that NACKs the first 64 sequences missing between
// next and the highest seen, and after NackMaxTries ticks with a gap open
// flushes every gap up to the highest seen. It is the reference
// TestNackScheduleMatchesTick holds the queue to. Its NACKs are answered
// by rtt: the copies arrive that long after the tick.
type refTick struct {
	clock    *sim.Scheduler
	rtt      time.Duration
	maxTries int

	next, maxSeen uint32
	pending       map[uint32]bool // held, by Retransmitted mark
	tries         int
	armed         bool
	timer         sim.Timer

	got        []heldDelivery
	firstNack  map[uint32]time.Duration
	nackPkts   int
	nackedSeqs int
}

func newRefTick(clock *sim.Scheduler, rtt time.Duration, maxTries int) *refTick {
	r := &refTick{clock: clock, rtt: rtt, maxTries: maxTries, next: 1,
		pending: make(map[uint32]bool), firstNack: make(map[uint32]time.Duration)}
	r.timer = clock.NewTimer(r.tick)
	return r
}

func (r *refTick) receive(seq uint32, retrans bool) {
	if seq > r.maxSeen {
		r.maxSeen = seq
	}
	if seq < r.next {
		return
	}
	if seq == r.next {
		r.next++
		r.deliver(seq, retrans)
	} else {
		if _, dup := r.pending[seq]; dup {
			return
		}
		r.pending[seq] = retrans
	}
	r.drain(0)
	if r.next <= r.maxSeen {
		r.arm()
	}
}

func (r *refTick) drain(to uint32) {
	for {
		retrans, ok := r.pending[r.next]
		switch {
		case ok:
			delete(r.pending, r.next)
			r.next++
			r.deliver(r.next-1, retrans)
		case r.next <= to:
			r.next++
		default:
			return
		}
	}
}

func (r *refTick) deliver(seq uint32, retrans bool) {
	r.got = append(r.got, heldDelivery{seq: seq, retransmitted: retrans})
}

func (r *refTick) arm() {
	if !r.armed {
		r.armed = true
		r.timer.Reset(nackInterval)
	}
}

func (r *refTick) tick() {
	r.armed = false
	var missing []uint32
	for seq := r.next; seq <= r.maxSeen && len(missing) < maxNackSeqs; seq++ {
		if _, ok := r.pending[seq]; !ok {
			missing = append(missing, seq)
		}
	}
	if len(missing) == 0 {
		r.tries = 0
		return
	}
	if r.tries++; r.tries > r.maxTries {
		r.tries = 0
		r.drain(r.maxSeen)
		return
	}
	r.nackPkts++
	r.nackedSeqs += len(missing)
	for _, seq := range missing {
		if _, ok := r.firstNack[seq]; !ok {
			r.firstNack[seq] = r.clock.Now()
		}
		r.clock.After(r.rtt, func() { r.receive(seq, true) })
	}
	r.arm()
}

// nackArrival is one copy of a reliable flow's packet reaching the
// destination.
type nackArrival struct {
	at      time.Duration
	seq     uint32
	retrans bool
}

// nackSchedule draws one reliable flow's arrivals: a packet sent every 2
// ms, a tenth lost, the rest 10 ms on with up to 8 ms of reordering jitter,
// some duplicated, and some lost or delivered ones also reaching the
// destination as a retransmitted copy up to 300 ms later, as a link's
// recovery makes. The last packet always arrives, so every loss is found.
// An original arrives at most 8 ms after a later sequence revealed it as
// missing, sooner than any NACK can be answered, so what recovered each
// sequence does not depend on when a NACK left.
func nackSchedule(seed uint64) []nackArrival {
	rng := rand.New(rand.NewPCG(seed, 32))
	const n, start = 200, time.Second
	var out []nackArrival
	for seq := uint32(1); seq <= n; seq++ {
		sent := start + time.Duration(seq)*2*time.Millisecond
		lost := seq < n && rng.IntN(10) == 0
		if !lost {
			at := sent + 10*time.Millisecond + time.Duration(rng.Int64N(int64(8*time.Millisecond)))
			out = append(out, nackArrival{at, seq, false})
			if rng.IntN(20) == 0 {
				out = append(out, nackArrival{at + time.Duration(rng.Int64N(int64(20*time.Millisecond))), seq, false})
			}
		}
		if lost && rng.IntN(3) == 0 || rng.IntN(30) == 0 {
			out = append(out, nackArrival{sent + time.Duration(rng.Int64N(int64(300*time.Millisecond))), seq, true})
		}
	}
	slices.SortStableFunc(out, func(a, b nackArrival) int { return int(a.at - b.at) })
	return out
}

// TestNackScheduleMatchesTick replays seeded arrival schedules, with loss,
// reordering, duplicates and retransmitted copies, through a reliable
// flow's destination on a two-node world, whose NACKs the source answers
// from its history, and through refTick. The source's history covers
// every gap, so both must deliver the same sequences with the same
// Retransmitted marks. Each gap's first NACK must leave exactly
// nackInterval after the arrival that revealed it, and never more than
// one interval after the tick's first request for it.
func TestNackScheduleMatchesTick(t *testing.T) {
	var pkts, seqs, refPkts, refSeqs, recovered int
	for seed := uint64(1); seed <= 24; seed++ {
		arrivals := nackSchedule(seed)

		refClock := sim.NewScheduler(seed)
		ref := newRefTick(refClock, 20*time.Millisecond, 100)
		for _, a := range arrivals {
			refClock.At(a.at, func() { ref.receive(a.seq, a.retrans) })
		}
		refClock.Run()

		w, m1, m2 := world(t, 0)
		dst, err := m2.Connect(100)
		if err != nil {
			t.Fatal(err)
		}
		var got []heldDelivery
		dst.OnDeliver(func(d Delivery) { got = append(got, heldDelivery{seq: d.Seq, retransmitted: d.Retransmitted}) })
		src, err := m1.Connect(0)
		if err != nil {
			t.Fatal(err)
		}
		f, err := src.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, LinkProto: wire.LPBestEffort, Ordered: true})
		if err != nil {
			t.Fatal(err)
		}
		// Every copy reaching the client is logged, and every NACK reaching
		// the source; a NACK left 10 ms, one hop, before it arrived.
		var firstArrival []time.Duration // by sequence: the earliest arrival of a later one
		arrived := func(seq uint32) {
			for len(firstArrival) <= int(seq) {
				firstArrival = append(firstArrival, -1)
			}
			if firstArrival[seq] < 0 {
				firstArrival[seq] = w.sched.Now()
			}
		}
		firstNack := make(map[uint32]time.Duration)
		w.nodes[2].SetDeliver(func(p *wire.Packet) {
			if p.Type == wire.PTData {
				arrived(p.FlowSeq)
			}
			m2.handleDelivery(p)
		})
		w.nodes[1].SetDeliver(func(p *wire.Packet) {
			if p.Type == wire.PTSessionCtl {
				k, err := unmarshalNack(p.Payload)
				if err != nil {
					t.Fatal(err)
				}
				pkts++
				seqs += len(k.seqs)
				for _, seq := range k.seqs {
					if _, ok := firstNack[seq]; !ok {
						firstNack[seq] = w.sched.Now() - 10*time.Millisecond
					}
				}
			}
			m1.handleDelivery(p)
		})
		packet := func(seq uint32) *wire.Packet {
			return &wire.Packet{
				Type: wire.PTData, Route: wire.RouteLinkState, LinkProto: wire.LPBestEffort,
				Src: 1, SrcPort: f.srcPort, Dst: 2, DstPort: 100, TTL: 8,
				FlowSeq: seq, Flags: wire.FOrdered, Origin: w.sched.Now(),
			}
		}
		for seq := uint32(1); seq <= 200; seq++ {
			f.remember(packet(seq))
		}
		for _, a := range arrivals {
			w.sched.At(a.at, func() {
				p := packet(a.seq)
				if a.retrans {
					p.Flags |= wire.FRetrans
				}
				arrived(a.seq)
				dst.receive(p)
			})
		}
		w.RunFor(5 * time.Second)

		if !slices.Equal(got, ref.got) {
			i := 0
			for i < min(len(got), len(ref.got)) && got[i] == ref.got[i] {
				i++
			}
			t.Fatalf("seed %d: %d deliveries, the tick's %d; they differ from delivery %d", seed, len(got), len(ref.got), i)
		}
		if len(got) != 200 {
			t.Fatalf("seed %d: %d of 200 delivered", seed, len(got))
		}
		for seq, at := range firstNack {
			found := time.Duration(-1)
			for later := int(seq) + 1; later < len(firstArrival); later++ {
				if a := firstArrival[later]; a >= 0 && (found < 0 || a < found) {
					found = a
				}
			}
			if at != found+nackInterval {
				t.Fatalf("seed %d: seq %d found at %v, first NACKed at %v, want %v", seed, seq, found, at, found+nackInterval)
			}
			if refAt, ok := ref.firstNack[seq]; ok && at > refAt+nackInterval {
				t.Fatalf("seed %d: seq %d first NACKed at %v, the tick's at %v", seed, seq, at, refAt)
			}
		}
		refPkts += ref.nackPkts
		refSeqs += ref.nackedSeqs
		for _, d := range got {
			if d.retransmitted {
				recovered++
			}
		}
	}
	if pkts == 0 || refPkts == 0 {
		t.Fatal("no schedule needed a NACK")
	}
	t.Logf("24 schedules, %d deliveries recovered: the queue sent %d NACKs for %d sequences, the tick %d for %d",
		recovered, pkts, seqs, refPkts, refSeqs)
}

// TestReliableGapKeepsItsOwnBudget opens a gap no NACK can fill — its
// sequence left the source's history — and, one interval before that gap
// is given up, a second gap the source can fill. The second gap keeps its
// own NACKs and is delivered recovered; giving the first up flushes past
// it alone.
func TestReliableGapKeepsItsOwnBudget(t *testing.T) {
	s, m1, m2 := world(t, 0)
	m2.NackMaxTries = 3
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, LinkProto: wire.LPBestEffort, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	send := func() {
		if err := flow.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	send()
	flow.seq++ // 2 is never sent, and no history holds it
	send()     // 3 reveals 2 10 ms on; 2 is given up 400 ms after that
	t0 := s.sched.Now()
	s.burst = func(now time.Duration) bool { return now == t0+300*time.Millisecond }
	s.sched.At(t0+300*time.Millisecond, send) // 4 is lost
	s.sched.At(t0+301*time.Millisecond, send) // 5 reveals 4 at 311 ms, 99 ms before 2 is given up
	s.RunFor(3 * time.Second)
	got := dst.Deliveries()
	var seqs []uint32
	for _, d := range got {
		seqs = append(seqs, d.Seq)
	}
	if !slices.Equal(seqs, []uint32{1, 3, 4, 5}) {
		t.Fatalf("delivered %v, want [1 3 4 5]", seqs)
	}
	if !got[2].Retransmitted {
		t.Fatal("seq 4 delivered without its Retransmitted mark")
	}
}

// positionAt moves a fresh flow's hold-back buffer, and the recovery
// queue over it, to next, as a flow that has delivered that many
// sequences: two moves of less than half the sequence space, with a
// reveal after each to take the queue's mark along.
func positionAt(st *reorderState, next uint32) {
	for _, at := range []uint32{next / 2, next} {
		st.hold = seqno.NewHoldBack(at)
		if st.gaps != nil {
			st.gaps.Reveal(at - 1)
		}
	}
}

// TestOrderedFlowsCrossSequenceWrap runs a reliable and a deadline flow
// across 2^32, each losing 2^32 − 2 and 0. The reliable flow recovers both
// end to end, the deadline flow flushes past them, and each delivers the
// rest in order. Compared raw, sequence 0 counted as late and the
// reliable flow NACKed sequences never sent, then flushed towards 2^32 − 1
// one sequence at a time; the deadline flow's flush ran in place forever.
// The world runs on its own goroutine, and the wall clock only bounds the
// wait for it.
func TestOrderedFlowsCrossSequenceWrap(t *testing.T) {
	s, m1, m2 := world(t, 0)
	m2.NackMaxTries = 3
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[wire.Port][]Delivery)
	dst.OnDeliver(func(d Delivery) { got[d.SrcPort] = append(got[d.SrcPort], d) })
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	const first = ^uint32(0) - 2 // 2^32 − 3
	want := []uint32{first, first + 1, first + 2, 0, 1, 2, 3}
	lost := func(seq uint32) bool { return seq == first+1 || seq == 0 }
	for _, deadline := range []time.Duration{0, 50 * time.Millisecond} {
		flow, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, LinkProto: wire.LPBestEffort, Ordered: true, Deadline: deadline})
		if err != nil {
			t.Fatal(err)
		}
		flow.seq = first - 1
		id := flowID{src: 1, srcPort: flow.srcPort}
		st := dst.newReorderState(id, deadline == 0)
		positionAt(st, first)
		dst.reorder[id] = st
		for i, seq := range want {
			at := s.sched.Now() + time.Duration(i+1)*5*time.Millisecond
			s.sched.At(at, func() {
				if lost(seq) {
					s.burst = func(now time.Duration) bool { return now == at }
				}
				if err := flow.Send(nil); err != nil {
					t.Error(err)
				}
			})
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.RunFor(5 * time.Second)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		t.Fatal("the world did not reach 5 virtual seconds")
	}
	for _, f := range c.flows {
		var seqs []uint32
		recovered := 0
		for _, d := range got[f.srcPort] {
			seqs = append(seqs, d.Seq)
			if d.Retransmitted {
				recovered++
			}
		}
		if f.spec.Deadline == 0 {
			if !slices.Equal(seqs, want) || recovered != 2 {
				t.Fatalf("reliable flow delivered %#x with %d recovered, want %#x with 2", seqs, recovered, want)
			}
			continue
		}
		var kept []uint32
		for _, seq := range want {
			if !lost(seq) {
				kept = append(kept, seq)
			}
		}
		if !slices.Equal(seqs, kept) {
			t.Fatalf("deadline flow delivered %#x, want %#x", seqs, kept)
		}
	}
	if late := dst.Stats().Late; late != 0 {
		t.Fatalf("%d packets counted late", late)
	}
}

// dropUnderlay is an underlay that loses everything: a lone node on it
// can originate NACKs that go nowhere.
type dropUnderlay struct{}

func (dropUnderlay) Send(wire.NodeID, uint8, []byte) {}
func (dropUnderlay) PathCount(wire.NodeID) int       { return 1 }

// orderedArrivals encodes arrivals for FuzzOrderedReceive: each is a flow
// sequence, a retransmission mark and the milliseconds until the next.
func orderedArrivals(seqs ...uint32) []byte {
	var out []byte
	for i, seq := range seqs {
		out = binary.BigEndian.AppendUint32(out, seq)
		out = append(out, byte(i%5/4), byte(1+i%3))
	}
	return out
}

// FuzzOrderedReceive feeds arbitrary arrivals — a flow sequence, a
// retransmission mark and a pause before the next — to one reliable and
// one deadline flow of a client on a lone node. Neither may panic, the
// world must reach a horizon past every give-up within a bounded number of
// events, and each flow must deliver sequences that strictly increase in
// serial order: each one ahead of the one before by at most half the
// sequence space.
func FuzzOrderedReceive(f *testing.F) {
	f.Add(orderedArrivals(1, 3, 2, 5, 4, 7))
	f.Add(orderedArrivals(^uint32(0)-3, ^uint32(0)-1, ^uint32(0)-2, 0, 2, ^uint32(0), 1, 3))
	f.Add(orderedArrivals(1, 2, 1<<31+2, 3, 1<<31+3, 5))
	f.Add(orderedArrivals(5, 1<<31+5, 4, 1<<31+4, 6))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 6*512 {
			return
		}
		sched := sim.NewScheduler(1)
		g := topology.NewGraph()
		if _, err := g.AddLink(1, 2, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		n, err := node.New(node.Config{ID: 2, Clock: sched, Underlay: dropUnderlay{}, Graph: g})
		if err != nil {
			t.Fatal(err)
		}
		m := NewManager(n)
		m.NackMaxTries = 3
		c, err := m.Connect(100)
		if err != nil {
			t.Fatal(err)
		}
		type flowCheck struct {
			prev      uint32
			delivered bool
		}
		checks := map[wire.Port]*flowCheck{1: {}, 2: {}}
		c.OnDeliver(func(d Delivery) {
			fc := checks[d.SrcPort]
			if fc.delivered && d.Seq-fc.prev-1 >= 1<<31 {
				t.Fatalf("flow %d delivered %#x after %#x", d.SrcPort, d.Seq, fc.prev)
			}
			fc.prev, fc.delivered = d.Seq, true
		})
		at := time.Duration(0)
		for ; len(data) >= 6; data = data[6:] {
			seq, flags, pause := binary.BigEndian.Uint32(data), data[4], time.Duration(data[5])*time.Millisecond
			for i, deadline := range []time.Duration{0, 30 * time.Millisecond} {
				p := wire.Packet{
					Type: wire.PTData, Src: 1, SrcPort: wire.Port(i + 1), Dst: 2, DstPort: 100,
					FlowSeq: seq, Flags: wire.FOrdered, Origin: at, Deadline: deadline,
				}
				if flags&1 != 0 {
					p.Flags |= wire.FRetrans
				}
				sched.At(at, func() { c.receive(&p) })
			}
			at += pause
		}
		horizon := at + time.Duration(m.NackMaxTries+2)*nackInterval
		for events := 0; ; events++ {
			if next, ok := sched.NextEventAt(); !ok || next > horizon {
				break
			}
			if events == 100_000 {
				t.Fatalf("%d events before %v", events, horizon)
			}
			sched.Step()
		}
		for _, st := range c.reorder {
			if st.gaps != nil && st.gaps.Len() > int(m.HistoryLimit) {
				t.Fatalf("%d gaps queued, more than the history holds", st.gaps.Len())
			}
		}
		c.Close()
		n.Stop()
	})
}

var _ seqno.Receiver = (*reorderState)(nil)
