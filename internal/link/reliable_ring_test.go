package link

import (
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// memEnd is one end of an in-memory link: frames a protocol transmits
// wait, unmarshaled, in the peer's inbox until handleInbox hands them over,
// unless drop loses them. A data frame's packet stays valid there because
// the sender's slot owns it until the ack, which is handled later.
type memEnd struct {
	clock     sim.Clock
	peer      *memEnd
	proto     *Reliable
	inbox     []wire.Frame
	sent      []wire.Frame // every frame transmitted, when record is set
	record    bool
	drop      func(*wire.Frame) bool
	delivered int
}

func (e *memEnd) Clock() sim.Clock { return e.clock }

func (e *memEnd) Transmit(f *wire.Frame) {
	if e.record {
		e.sent = append(e.sent, *f)
	}
	if e.peer != nil && (e.drop == nil || !e.drop(f)) {
		e.peer.inbox = append(e.peer.inbox, *f)
	}
}

func (e *memEnd) Deliver(*wire.Packet) { e.delivered++ }

// handleInbox feeds the end's protocol everything waiting for it. Handling
// a frame only ever appends to the peer's inbox, never to this one.
func (e *memEnd) handleInbox() {
	for i := range e.inbox {
		e.proto.HandleFrame(&e.inbox[i])
	}
	e.inbox = e.inbox[:0]
}

func memPair(clock sim.Clock, cfg ReliableConfig) (a, b *memEnd) {
	a, b = &memEnd{clock: clock}, &memEnd{clock: clock}
	a.peer, b.peer = b, a
	a.proto, b.proto = NewReliable(a, cfg), NewReliable(b, cfg)
	return a, b
}

// TestReliableLinkAllocBudget pins the hop-by-hop ARQ's steady state at
// zero allocations per message (`make bench-guard`): Send captures into a
// recycled slot and re-arms the retransmission timer, the receiver
// records, delivers and acks, and the ack settles the slot and stops the
// timer — on the virtual clock and on the real one.
func TestReliableLinkAllocBudget(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	loop := sim.NewLoop()
	defer loop.Close()
	clocks := map[string]sim.Clock{
		"scheduler": sim.NewScheduler(1),
		// The cycle runs on the test goroutine: nothing is left armed
		// between cycles, so the loop never has a callback to run beside it.
		"realtime": sim.NewRealtimeClock(loop),
	}
	for name, clock := range clocks {
		t.Run(name, func(t *testing.T) {
			a, b := memPair(clock, ReliableConfig{})
			p := dataPacket(1)
			p.Payload = make([]byte, 64)
			cycle := func() {
				a.proto.Send(p)
				b.handleInbox() // data in, ack out
				a.handleInbox() // ack in
			}
			for i := 0; i < 64; i++ {
				cycle() // warm the slot freelist, the buffer pool and the inboxes
			}
			if avg := testing.AllocsPerRun(1000, cycle); avg != 0 {
				t.Fatalf("send→data→ack cycle allocates %.2f allocs/op, budget is 0", avg)
			}
			if got := a.proto.OutstandingFrames(); got != 0 {
				t.Fatalf("%d frames outstanding after the last ack", got)
			}
			if b.delivered < 1064 || a.proto.Stats().Retransmissions != 0 {
				t.Fatalf("delivered %d with %d retransmissions, want every send delivered once",
					b.delivered, a.proto.Stats().Retransmissions)
			}
		})
	}
}

// TestReliableInOrderHoldAllocBudget pins the in-order ablation's hold-back
// at zero allocations (`make bench-guard`): every cycle a warmed in-order
// endpoint receives two frames swapped, holds the second in a pooled
// buffer, and releases it when the first fills the gap. The request the
// gap sends brings a retransmission, dropped as a duplicate, and the gap
// queue's timer drops the gap once it has arrived.
func TestReliableInOrderHoldAllocBudget(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	sched := sim.NewScheduler(1)
	a, b := memPair(sched, ReliableConfig{InOrderForwarding: true})
	p := dataPacket(1)
	p.Payload = make([]byte, 64)
	cycle := func() {
		a.proto.Send(p)
		a.proto.Send(p)
		b.inbox[0], b.inbox[1] = b.inbox[1], b.inbox[0]
		b.handleInbox() // the second frame is held, the first releases it
		a.handleInbox() // acks, and the gap's request retransmits the first
		b.handleInbox() // the retransmission is a duplicate
		a.handleInbox()
		sched.RunFor(30 * time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		cycle() // warm the hold-back buffer, the pool and the gap queue
	}
	if avg := testing.AllocsPerRun(500, cycle); avg != 0 {
		t.Fatalf("a cycle holding one frame allocates %.2f allocs/op, budget is 0", avg)
	}
	if st := b.proto.Stats(); b.delivered != 2*601 || st.Delivered != 2*601 || st.DuplicatesDropped == 0 {
		t.Fatalf("delivered %d (%d counted) with %d duplicates, want %d and some duplicates",
			b.delivered, st.Delivered, st.DuplicatesDropped, 2*601)
	}
	if b.proto.hold.Len() != 0 || a.proto.OutstandingFrames() != 0 {
		t.Fatalf("%d frames held, %d outstanding after the last cycle", b.proto.hold.Len(), a.proto.OutstandingFrames())
	}
}

// countingClock counts the readings protocol code takes of its clock: a
// Now, or a relative Reset, which reads the clock to find its deadline.
// An absolute ResetAt reads nothing.
type countingClock struct {
	sim.Clock
	reads int
}

func (c *countingClock) Now() time.Duration {
	c.reads++
	return c.Clock.Now()
}

func (c *countingClock) NewTimer(fn func()) sim.Timer {
	return countingTimer{c.Clock.NewTimer(fn), c}
}

type countingTimer struct {
	sim.Timer
	c *countingClock
}

func (t countingTimer) Reset(d time.Duration) {
	t.c.reads++
	t.Timer.Reset(d)
}

// TestReliableClockReadsPerCycle pins the clock readings of the Reliable
// link's steady state: the send stamp, which also arms the retransmission
// timeout, and the ack's RTT sample, which re-arms it. An in-order arrival
// reveals no gap and reads nothing.
func TestReliableClockReadsPerCycle(t *testing.T) {
	sched := sim.NewScheduler(1)
	clock := &countingClock{Clock: sched}
	a, b := memPair(clock, ReliableConfig{})
	cycle := func() {
		a.proto.Send(dataPacket(1))
		b.handleInbox() // data in, ack out
		a.handleInbox() // ack in
		sched.RunFor(time.Microsecond)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	const cycles = 100
	clock.reads = 0
	for i := 0; i < cycles; i++ {
		cycle()
	}
	if perCycle := float64(clock.reads) / cycles; perCycle > 2 {
		t.Fatalf("send→data→ack cycle reads the clock %.1f times, want at most 2", perCycle)
	}
	if b.delivered != 16+cycles || a.proto.Stats().Retransmissions != 0 {
		t.Fatalf("delivered %d with %d retransmissions, want every send delivered once",
			b.delivered, a.proto.Stats().Retransmissions)
	}
}

// lastData returns the sequence of the most recent data frame sent.
func lastData(t *testing.T, e *memEnd) uint32 {
	t.Helper()
	for i := len(e.sent) - 1; i >= 0; i-- {
		if e.sent[i].Kind == wire.FData {
			return e.sent[i].Seq
		}
	}
	t.Fatal("no data frame sent")
	return 0
}

// TestReliableAckSettlesByIndex drives the sender alone with hand-made
// acks: selective bits clear frames in the middle of the window, the
// cumulative edge advances the cursor past them, and the retransmission
// timeout always resends the oldest frame still unacknowledged.
func TestReliableAckSettlesByIndex(t *testing.T) {
	sched := sim.NewScheduler(1)
	a := &memEnd{clock: sched, record: true}
	r := NewReliable(a, ReliableConfig{RTOInit: 10 * time.Millisecond})
	for i := uint32(1); i <= 10; i++ {
		r.Send(dataPacket(i))
	}
	ack := func(cum uint32, sel uint64) {
		r.HandleFrame(&wire.Frame{Proto: wire.LPReliable, Kind: wire.FAck, Ack: cum, AckBits: sel})
	}
	// Bits 2 and 4 above a cumulative edge of 0 are sequences 3 and 5.
	ack(0, 1<<2|1<<4)
	if got := r.OutstandingFrames(); got != 8 {
		t.Fatalf("outstanding after selective ack = %d, want 8", got)
	}
	ack(0, 1<<2|1<<4) // the same ack again settles nothing twice
	if got := r.OutstandingFrames(); got != 8 {
		t.Fatalf("outstanding after duplicate ack = %d, want 8", got)
	}
	sched.RunFor(10 * time.Millisecond)
	if got := lastData(t, a); got != 1 {
		t.Fatalf("timeout retransmitted seq %d, want the oldest (1)", got)
	}
	// Edge to 2: the cursor skips 3, already settled, and stops at 4.
	ack(2, 0)
	if got := r.OutstandingFrames(); got != 6 {
		t.Fatalf("outstanding after cumulative ack = %d, want 6", got)
	}
	sched.RunFor(time.Second)
	if got := lastData(t, a); got != 4 {
		t.Fatalf("timeout retransmitted seq %d, want the oldest (4)", got)
	}
	// A request for a settled or never-sent sequence is ignored.
	before := r.Stats().Retransmissions
	for _, seq := range []uint32{3, 5, 11, 1 << 31} {
		r.HandleFrame(&wire.Frame{Proto: wire.LPReliable, Kind: wire.FReq, Seq: seq})
	}
	if got := r.Stats().Retransmissions; got != before {
		t.Fatalf("requests for settled sequences caused %d retransmissions", got-before)
	}
	// An ack far past anything sent settles the rest and stops the timer.
	ack(10, ^uint64(0))
	if got := r.OutstandingFrames(); got != 0 {
		t.Fatalf("outstanding after full ack = %d, want 0", got)
	}
	if got := sched.Pending(); got != 0 {
		t.Fatalf("%d timers pending on an idle sender", got)
	}
}

// TestReliableRingBoundedByWindow holds the oldest frame unacknowledged
// while a misbehaving peer gets every later frame abandoned (requests
// past MaxRetries), so the frame count never fills the window: the
// in-flight span — and with it the ring — still stops at
// Window+spanSlack, later sends wait in the queue, and they go out once
// the edge moves.
func TestReliableRingBoundedByWindow(t *testing.T) {
	sched := sim.NewScheduler(1)
	a := &memEnd{clock: sched}
	const window, bound = 8, 8 + spanSlack
	r := NewReliable(a, ReliableConfig{Window: window, MaxRetries: 1, RTOInit: time.Hour})
	const sends = 200
	for i := uint32(1); i <= sends; i++ {
		r.Send(dataPacket(i))
		if i > 1 {
			req := &wire.Frame{Proto: wire.LPReliable, Kind: wire.FReq, Seq: i}
			r.HandleFrame(req)
			r.HandleFrame(req) // second retry exceeds MaxRetries: abandoned
		}
	}
	if r.nextSeq != bound || r.low != 1 || r.inFlight != 1 {
		t.Fatalf("sent up to %d with low %d and %d in flight, want the span to stop at %d behind seq 1",
			r.nextSeq, r.low, r.inFlight, bound)
	}
	if len(r.ring) >= 2*bound {
		t.Fatalf("ring grew to %d slots for a span bound of %d", len(r.ring), bound)
	}
	if got := r.OutstandingFrames(); got != 1+sends-bound {
		t.Fatalf("outstanding %d, want seq 1 plus the %d queued sends", got, sends-bound)
	}
	for r.OutstandingFrames() > 0 {
		before := r.OutstandingFrames()
		r.HandleFrame(&wire.Frame{Proto: wire.LPReliable, Kind: wire.FAck, Ack: r.nextSeq})
		if r.OutstandingFrames() >= before {
			t.Fatalf("cumulative ack %d left %d outstanding", r.nextSeq, r.OutstandingFrames())
		}
	}
	if r.nextSeq != sends {
		t.Fatalf("sent up to seq %d, want %d", r.nextSeq, sends)
	}
}
