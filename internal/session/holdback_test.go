package session

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// clientOn returns a client of a manager with no node, on clock: enough
// for a deadline flow's hold-back buffer, which never sends.
func clientOn(clock sim.Clock) *Client {
	m := &Manager{clock: clock, clients: make(map[wire.Port]*Client), flowPorts: make(map[wire.Port]*Flow)}
	c, err := m.Connect(100)
	if err != nil {
		panic(err)
	}
	return c
}

// heldDelivery is what a differential run compares of one delivery.
type heldDelivery struct {
	seq           uint32
	latency       time.Duration
	retransmitted bool
}

// refHoldBack is a deadline flow's hold-back buffer as it was built with
// one deadline timer per held packet: every out-of-order packet armed its
// own After, which flushed to that packet's sequence when it fired. It is
// the reference the flow's one timer is checked against.
type refHoldBack struct {
	clock   sim.Clock
	next    uint32
	pending map[uint32]*refHeld
	got     []heldDelivery

	received, late, duplicates uint64
}

type refHeld struct {
	p     wire.Packet
	timer sim.Timer
}

func newRefHoldBack(clock sim.Clock) *refHoldBack {
	return &refHoldBack{clock: clock, next: 1, pending: make(map[uint32]*refHeld)}
}

func (r *refHoldBack) receive(p *wire.Packet) {
	if p.FlowSeq < r.next {
		if p.Flags.Has(wire.FRetrans) {
			r.duplicates++
		} else {
			r.late++
		}
		return
	}
	if p.FlowSeq == r.next {
		r.next++
		r.deliver(p)
	} else {
		if _, dup := r.pending[p.FlowSeq]; dup {
			r.duplicates++
			return
		}
		held := &refHeld{p: *p}
		r.pending[p.FlowSeq] = held
		if p.Deadline > 0 {
			seq := p.FlowSeq
			held.timer = r.clock.After(p.Origin+p.Deadline-r.clock.Now(), func() { r.flushTo(seq) })
		}
	}
	r.drain()
}

func (r *refHoldBack) drain() {
	for {
		held, ok := r.pending[r.next]
		if !ok {
			return
		}
		delete(r.pending, r.next)
		held.timer.Stop()
		r.next++
		r.deliver(&held.p)
	}
}

func (r *refHoldBack) flushTo(seq uint32) {
	if seq < r.next {
		return
	}
	for s := r.next; s <= seq; s++ {
		if held, ok := r.pending[s]; ok {
			delete(r.pending, s)
			held.timer.Stop()
			r.deliver(&held.p)
		}
	}
	r.next = seq + 1
	r.drain()
}

func (r *refHoldBack) deliver(p *wire.Packet) {
	r.received++
	r.got = append(r.got, heldDelivery{p.FlowSeq, r.clock.Now() - p.Origin, p.Flags.Has(wire.FRetrans)})
}

// arrival is one copy of a packet reaching the destination.
type arrival struct {
	at time.Duration
	p  wire.Packet
}

// holdBackSchedule draws one deadline flow's arrivals: packets sent every
// millisecond with jitter, a quarter in a burst with the one before, some
// lost, the rest delayed by up to twice the
// deadline (reordered, and late when the delay passes it), some
// duplicated, and some lost or delivered ones recovered by a
// retransmitted copy at any later time. No two arrivals share an instant
// and none falls on a deadline, the ties at which one timer and one timer
// per packet may order same-instant events differently.
func holdBackSchedule(seed uint64) []arrival {
	rng := rand.New(rand.NewPCG(seed, 29))
	deadline := time.Duration(2+rng.IntN(40)) * time.Millisecond
	const n = 300
	origins := make([]time.Duration, n+1)
	deadlines := make(map[time.Duration]bool, n)
	for seq := 1; seq <= n; seq++ {
		origins[seq] = time.Duration(seq)*time.Millisecond + time.Duration(rng.IntN(int(time.Millisecond)))
		if rng.IntN(4) == 0 {
			origins[seq] = origins[seq-1] // sent in one burst: the deadlines tie
		}
		deadlines[origins[seq]+deadline] = true
	}
	taken := make(map[time.Duration]bool)
	at := func(earliest time.Duration) time.Duration {
		for {
			t := earliest + time.Duration(rng.Int64N(int64(2*deadline)))
			if !taken[t] && !deadlines[t] {
				taken[t] = true
				return t
			}
		}
	}
	var out []arrival
	copyOf := func(seq int, flags wire.Flags) {
		p := wire.Packet{
			Type: wire.PTData, Src: 1, SrcPort: 50000, Dst: 2, DstPort: 100,
			FlowSeq: uint32(seq), Flags: wire.FOrdered | flags,
			Origin: origins[seq], Deadline: deadline, Payload: []byte{byte(seq)},
		}
		out = append(out, arrival{at(origins[seq]), p})
	}
	for seq := 1; seq <= n; seq++ {
		lost := rng.IntN(10) == 0
		if !lost {
			copyOf(seq, 0)
			if rng.IntN(20) == 0 {
				copyOf(seq, 0) // a duplicate, as redundant routing makes
			}
		}
		if lost && rng.IntN(2) == 0 || rng.IntN(20) == 0 {
			copyOf(seq, wire.FRetrans)
		}
	}
	slices.SortFunc(out, func(a, b arrival) int { return int(a.at - b.at) })
	return out
}

// TestHoldBackMatchesPerPacketTimers replays seeded arrival schedules
// through a client's hold-back buffer and through refHoldBack, each on its
// own scheduler. The flow's one timer must deliver the same sequences at
// the same latencies with the same marks, and count the same received,
// late and duplicate packets, as one timer per held packet did. Between
// arrivals the flow has one timer armed while it holds anything and none
// otherwise, and nothing is pending once the schedule has played out.
func TestHoldBackMatchesPerPacketTimers(t *testing.T) {
	var late, duplicates, recovered, flushedPast uint64
	for seed := uint64(1); seed <= 24; seed++ {
		arrivals := holdBackSchedule(seed)

		refClock := sim.NewScheduler(seed)
		ref := newRefHoldBack(refClock)
		for i := range arrivals {
			a := &arrivals[i]
			refClock.At(a.at, func() { ref.receive(&a.p) })
		}
		refClock.Run()

		clock := sim.NewScheduler(seed)
		c := clientOn(clock)
		var got []heldDelivery
		c.OnDeliver(func(d Delivery) { got = append(got, heldDelivery{d.Seq, d.Latency, d.Retransmitted}) })
		held := func() int { return c.reorder[flowID{src: 1, srcPort: 50000}].hold.Len() }
		for i := range arrivals {
			a := &arrivals[i]
			clock.At(a.at, func() {
				c.receive(&a.p)
				armed, want := clock.Pending()-(len(arrivals)-1-i), min(held(), 1)
				if armed != want {
					t.Errorf("seed %d: %d held after arrival %d, %d timers armed, want %d", seed, held(), i, armed, want)
				}
			})
		}
		clock.Run()

		if !slices.Equal(got, ref.got) {
			i := 0
			for i < min(len(got), len(ref.got)) && got[i] == ref.got[i] {
				i++
			}
			t.Fatalf("seed %d: %d deliveries, reference %d; they differ from delivery %d", seed, len(got), len(ref.got), i)
		}
		stats := c.Stats()
		if stats.Received != ref.received || stats.Late != ref.late || stats.Duplicates != ref.duplicates {
			t.Fatalf("seed %d: received %d, late %d, duplicates %d; reference %d, %d, %d", seed,
				stats.Received, stats.Late, stats.Duplicates, ref.received, ref.late, ref.duplicates)
		}
		if clock.Pending() != 0 || held() != 0 {
			t.Fatalf("seed %d: %d events pending and %d packets held after the schedule", seed, clock.Pending(), held())
		}
		late += ref.late
		duplicates += ref.duplicates
		for _, d := range ref.got {
			if d.retransmitted {
				recovered++
			}
		}
		flushedPast += uint64(ref.next-1) - ref.received
	}
	// The schedules exercised every path the two implementations share.
	if late == 0 || duplicates == 0 || recovered == 0 || flushedPast == 0 {
		t.Fatalf("schedules too tame: %d late, %d duplicates, %d recovered, %d flushed past", late, duplicates, recovered, flushedPast)
	}
	t.Logf("24 schedules: %d late, %d duplicates, %d recovered, %d flushed past", late, duplicates, recovered, flushedPast)
}

// TestOrderedHoldAllocBudget pins the hold-back buffer's steady state at
// zero allocations (`make bench-guard`). On the scheduler clock a warmed
// ordered deadline flow holds three of every six packets and releases
// them, two when their gap fills and one at its deadline: each held packet
// is captured into a pooled buffer and stored by value, and the flow's one
// timer moves in place. The per-delivery latency sample appends, which
// stays below one allocation per round.
func TestOrderedHoldAllocBudget(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	clock := sim.NewScheduler(1)
	c := clientOn(clock)
	delivered := 0
	c.OnDeliver(func(Delivery) { delivered++ })
	const deadline = 20 * time.Millisecond
	p := &wire.Packet{
		Type: wire.PTData, Src: 1, SrcPort: 50000, Dst: 2, DstPort: 100,
		Flags: wire.FOrdered, Deadline: deadline, Payload: make([]byte, 64),
	}
	var base uint32
	arrive := func(seq uint32) {
		p.FlowSeq, p.Origin = base+seq, clock.Now()
		c.receive(p)
	}
	round := func() {
		arrive(1) // in sequence
		arrive(3) // held behind 2
		arrive(4)
		arrive(2) // fills the gap: 2, 3 and 4
		arrive(6) // held behind 5, which is lost
		clock.RunFor(deadline + time.Millisecond)
		base += 6
	}
	for i := 0; i < 100; i++ {
		round()
	}
	if avg := testing.AllocsPerRun(300, round); avg != 0 {
		t.Fatalf("a round holding 3 packets allocates %.2f times, budget is 0", avg)
	}
	const rounds = 100 + 300 + 1
	if delivered != rounds*5 || clock.Pending() != 0 {
		t.Fatalf("delivered %d of %d, %d timers pending", delivered, rounds*5, clock.Pending())
	}
}
