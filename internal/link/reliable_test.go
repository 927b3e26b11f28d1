package link

import (
	"math/rand"
	"testing"
	"time"

	"sonet/internal/seqno"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

func reliablePair(sched *sim.Scheduler, latency time.Duration, cfg ReliableConfig) *pipe {
	p := newPipe(sched, latency)
	p.a.proto = NewReliable(p.a, cfg)
	p.b.proto = NewReliable(p.b, cfg)
	return p
}

func TestReliableLosslessDelivery(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{})
	for i := uint32(1); i <= 100; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.RunFor(5 * time.Second)
	if len(p.b.delivered) != 100 {
		t.Fatalf("delivered %d, want 100", len(p.b.delivered))
	}
	st := p.a.proto.Stats()
	if st.Retransmissions != 0 {
		t.Fatalf("lossless run retransmitted %d frames", st.Retransmissions)
	}
	for i, seq := range deliveredSeqs(p.b) {
		if seq != uint32(i+1) {
			t.Fatalf("out-of-order delivery without loss at %d", i)
		}
	}
}

func TestReliableRecoversFromRandomLoss(t *testing.T) {
	sched := sim.NewScheduler(42)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{})
	r := rand.New(rand.NewSource(7))
	p.a.drop = func(*wire.Frame) bool { return r.Float64() < 0.10 }
	p.b.drop = func(*wire.Frame) bool { return r.Float64() < 0.10 }
	const n = 1000
	for i := uint32(1); i <= n; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.RunFor(60 * time.Second)
	if len(p.b.delivered) != n {
		t.Fatalf("delivered %d, want %d", len(p.b.delivered), n)
	}
	seen := make(map[uint32]bool)
	for _, seq := range deliveredSeqs(p.b) {
		if seen[seq] {
			t.Fatalf("seq %d delivered twice", seq)
		}
		seen[seq] = true
	}
	if p.a.proto.Stats().Retransmissions == 0 {
		t.Fatal("10% loss produced zero retransmissions")
	}
}

func TestReliableOutOfOrderForwarding(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{})
	dropped := false
	p.a.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 3 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	for i := uint32(1); i <= 5; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.RunFor(2 * time.Second)
	seqs := deliveredSeqs(p.b)
	if len(seqs) != 5 {
		t.Fatalf("delivered %v, want 5 packets", seqs)
	}
	// Default config forwards out of order: 4 and 5 precede recovered 3.
	want := []uint32{1, 2, 4, 5, 3}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("delivery order = %v, want %v", seqs, want)
		}
	}
}

func TestReliableInOrderAblation(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := ReliableConfig{InOrderForwarding: true}
	p := reliablePair(sched, 10*time.Millisecond, cfg)
	dropped := false
	p.a.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 3 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	for i := uint32(1); i <= 5; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.RunFor(2 * time.Second)
	seqs := deliveredSeqs(p.b)
	want := []uint32{1, 2, 3, 4, 5}
	if len(seqs) != 5 {
		t.Fatalf("delivered %v, want 5 packets", seqs)
	}
	for i := range want {
		if seqs[i] != want[i] {
			t.Fatalf("in-order ablation delivery = %v, want %v", seqs, want)
		}
	}
}

func TestReliableNackRecoveryLatency(t *testing.T) {
	// Fig. 3 mechanics on one 10 ms link: loss detected by the next
	// packet, one request (10 ms) plus one retransmission (10 ms) puts
	// recovery roughly one RTT after detection, far below the RTO.
	sched := sim.NewScheduler(1)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{})
	dropped := false
	p.a.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	var recoveredAt time.Duration
	base := p.b.proto
	p.b.proto = &deliverHook{Protocol: base, hook: func(pk *wire.Packet) {
		if pk.FlowSeq == 2 {
			recoveredAt = sched.Now()
		}
	}}
	// Send packet 1 and 2 now, packet 3 at 20ms (revealing the gap).
	p.a.proto.Send(dataPacket(1))
	p.a.proto.Send(dataPacket(2))
	sched.After(20*time.Millisecond, func() { p.a.proto.Send(dataPacket(3)) })
	sched.RunFor(2 * time.Second)
	if recoveredAt == 0 {
		t.Fatal("packet 2 never recovered")
	}
	// Gap revealed at 30ms (packet 3 arrival); request at 30ms reaches
	// sender at 40ms; retransmission arrives at 50ms.
	if recoveredAt != 50*time.Millisecond {
		t.Fatalf("recovered at %v, want 50ms", recoveredAt)
	}
}

// deliverHook wraps a Protocol to observe deliveries.
type deliverHook struct {
	Protocol
	hook func(*wire.Packet)
}

func (d *deliverHook) HandleFrame(f *wire.Frame) {
	d.Protocol.HandleFrame(f)
	if f.Kind == wire.FData && f.Packet != nil && d.hook != nil {
		d.hook(f.Packet)
	}
}

// TestReliableRTOOnlyRecovery loses every retransmission request on the
// reverse path, the way a lossy link does: the receiver sees the gap and
// asks, nothing it asks arrives, and the sender's timeout alone recovers
// the frame.
func TestReliableRTOOnlyRecovery(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := ReliableConfig{RTOInit: 40 * time.Millisecond}
	p := reliablePair(sched, 10*time.Millisecond, cfg)
	dropped := false
	p.a.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 1 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	p.b.drop = func(f *wire.Frame) bool { return f.Kind == wire.FReq }
	p.a.proto.Send(dataPacket(1))
	p.a.proto.Send(dataPacket(2))
	sched.RunFor(5 * time.Second)
	if len(p.b.delivered) != 2 {
		t.Fatalf("delivered %d, want 2 via RTO", len(p.b.delivered))
	}
	st := p.a.proto.Stats()
	if st.Retransmissions == 0 {
		t.Fatal("no retransmissions despite drop")
	}
	if p.b.proto.Stats().Requests == 0 {
		t.Fatal("receiver never requested the gap, so the lost requests proved nothing")
	}
}

func TestReliableWindowBackpressureQueues(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := ReliableConfig{Window: 4, QueueLimit: 8}
	p := reliablePair(sched, 10*time.Millisecond, cfg)
	for i := uint32(1); i <= 20; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	// 4 in flight + 8 queued; 8 dropped.
	rel, ok := p.a.proto.(*Reliable)
	if !ok {
		t.Fatal("not a Reliable")
	}
	if got := rel.OutstandingFrames(); got != 12 {
		t.Fatalf("outstanding = %d, want 12", got)
	}
	if st := p.a.proto.Stats(); st.SendDropped != 8 {
		t.Fatalf("SendDropped = %d, want 8", st.SendDropped)
	}
	sched.RunFor(5 * time.Second)
	if len(p.b.delivered) != 12 {
		t.Fatalf("delivered %d, want 12", len(p.b.delivered))
	}
}

func TestReliableDuplicateSuppression(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := ReliableConfig{RTOInit: 30 * time.Millisecond}
	p := reliablePair(sched, 10*time.Millisecond, cfg)
	// Drop the first ACK so the sender RTO-retransmits a frame the
	// receiver already has.
	ackDropped := false
	p.b.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FAck && !ackDropped {
			ackDropped = true
			return true
		}
		return false
	}
	p.a.proto.Send(dataPacket(1))
	sched.RunFor(2 * time.Second)
	if len(p.b.delivered) != 1 {
		t.Fatalf("delivered %d, want exactly 1", len(p.b.delivered))
	}
	if st := p.b.proto.Stats(); st.DuplicatesDropped == 0 {
		t.Fatal("duplicate retransmission not counted")
	}
}

func TestReliableGivesUpAfterMaxRetries(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := ReliableConfig{RTOInit: 5 * time.Millisecond, MaxRetries: 3, MaxReqs: 3, ReqInterval: 5 * time.Millisecond}
	p := reliablePair(sched, 10*time.Millisecond, cfg)
	p.a.drop = func(f *wire.Frame) bool { return f.Kind == wire.FData } // sever data direction
	p.a.proto.Send(dataPacket(1))
	sched.RunFor(10 * time.Second)
	if len(p.b.delivered) != 0 {
		t.Fatal("delivered across severed link")
	}
	st := p.a.proto.Stats()
	if st.SendDropped != 1 {
		t.Fatalf("SendDropped = %d, want 1 after giving up", st.SendDropped)
	}
	if st.Retransmissions > uint64(cfg.MaxRetries) {
		t.Fatalf("retransmissions %d exceed MaxRetries %d", st.Retransmissions, cfg.MaxRetries)
	}
	if sched.Pending() != 0 {
		t.Fatalf("%d timers still pending after give-up", sched.Pending())
	}
}

func TestReliableCloseStopsTimers(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{})
	p.a.drop = func(*wire.Frame) bool { return true }
	for i := uint32(1); i <= 5; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	p.a.proto.Close()
	p.b.proto.Close()
	sched.RunFor(time.Minute)
	if got := p.a.proto.Stats().Retransmissions; got != 0 {
		t.Fatalf("closed protocol retransmitted %d frames", got)
	}
}

func TestReliableBidirectional(t *testing.T) {
	sched := sim.NewScheduler(3)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{})
	r := rand.New(rand.NewSource(9))
	p.a.drop = func(*wire.Frame) bool { return r.Float64() < 0.05 }
	p.b.drop = func(*wire.Frame) bool { return r.Float64() < 0.05 }
	for i := uint32(1); i <= 200; i++ {
		p.a.proto.Send(dataPacket(i))
		p.b.proto.Send(dataPacket(1000 + i))
	}
	sched.RunFor(30 * time.Second)
	if len(p.a.delivered) != 200 || len(p.b.delivered) != 200 {
		t.Fatalf("delivered a=%d b=%d, want 200 each", len(p.a.delivered), len(p.b.delivered))
	}
}

// TestReliableSurvivesSequenceWraparound fast-forwards a session to just
// before 2^32 and pushes traffic (with loss) across the boundary. Before
// the serial-arithmetic fix, every post-wrap data frame compared as a
// duplicate and every post-wrap ack as ancient, black-holing the link for
// good — the regression this pins.
func TestReliableSurvivesSequenceWraparound(t *testing.T) {
	sched := sim.NewScheduler(3)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{})
	const preWrap = 50
	edge := ^uint32(0) - preWrap // 2^32 - 51
	ra := p.a.proto.(*Reliable)
	rb := p.b.proto.(*Reliable)
	ra.nextSeq = edge
	fastForward(rb.recvWin, rb.gaps, edge)
	r := rand.New(rand.NewSource(11))
	p.a.drop = func(*wire.Frame) bool { return r.Float64() < 0.10 }
	p.b.drop = func(*wire.Frame) bool { return r.Float64() < 0.10 }
	const n = 200 // crosses the wrap at packet 51
	for i := uint32(1); i <= n; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.RunFor(60 * time.Second)
	if len(p.b.delivered) != n {
		t.Fatalf("delivered %d of %d across wraparound", len(p.b.delivered), n)
	}
	seen := make(map[uint32]bool)
	for _, seq := range deliveredSeqs(p.b) {
		if seen[seq] {
			t.Fatalf("flow seq %d delivered twice across wraparound", seq)
		}
		seen[seq] = true
	}
	if got := rb.recvWin.Cum(); got != edge+n {
		t.Fatalf("receiver cum = %#x, want %#x past the wrap", got, edge+n)
	}
}

// TestReliableInOrderAcrossWraparound runs the in-order forwarding mode
// across the boundary: the delivery cursor itself wraps.
func TestReliableInOrderAcrossWraparound(t *testing.T) {
	sched := sim.NewScheduler(5)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{InOrderForwarding: true})
	edge := ^uint32(0) - 9
	ra := p.a.proto.(*Reliable)
	rb := p.b.proto.(*Reliable)
	ra.nextSeq = edge
	rb.hold = seqno.NewHoldBack(edge + 1)
	fastForward(rb.recvWin, rb.gaps, edge)
	dropped := false
	p.a.drop = func(f *wire.Frame) bool {
		// Lose the first frame after the wrap once; later arrivals must be
		// held and flushed in order once it is recovered.
		if f.Kind == wire.FData && f.Seq == 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	const n = 40
	for i := uint32(1); i <= n; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.RunFor(30 * time.Second)
	if len(p.b.delivered) != n {
		t.Fatalf("delivered %d of %d across wraparound", len(p.b.delivered), n)
	}
	for i, seq := range deliveredSeqs(p.b) {
		if seq != uint32(i+1) {
			t.Fatalf("in-order mode delivered out of order at %d: flow seq %d", i, seq)
		}
	}
}

// fastForward moves a fresh receiver's window, and the gap queue over it,
// to edge, as a link that has run that long: two give-ups of less than
// half the sequence space each, with a reveal after each to take the
// queue's mark along.
func fastForward(w *seqno.Window, q *seqno.Queue, edge uint32) {
	for _, at := range []uint32{edge / 2, edge} {
		w.Pass(at)
		q.Reveal(at)
	}
}

// ackRecorder is a link.Env that keeps every frame the endpoint transmits
// (a revealed gap's request among them) and hosts no turns.
type ackRecorder struct {
	clock sim.Clock
	sent  []wire.Frame
}

func (e *ackRecorder) Clock() sim.Clock { return e.clock }

func (e *ackRecorder) Transmit(f *wire.Frame) {
	g := *f
	g.Packet = nil
	e.sent = append(e.sent, g)
}

func (e *ackRecorder) Deliver(*wire.Packet) {}

// turnHost is an ackRecorder that hosts turns the way a daemon's shard
// does: from open until endTurn, endpoints that defer join owed, and
// endTurn answers them in order.
type turnHost struct {
	*ackRecorder
	open bool
	owed []*Reliable
}

func (e *turnHost) Defer(r *Reliable) bool {
	if !e.open {
		return false
	}
	e.owed = append(e.owed, r)
	return true
}

func (e *turnHost) endTurn() {
	e.open = false
	for _, r := range e.owed {
		r.EndTurn()
	}
	e.owed = nil
}

// dataFrame is data frame seq as the peer sent it at sent.
func dataFrame(seq uint32, sent time.Duration) *wire.Frame {
	return &wire.Frame{Proto: wire.LPReliable, Kind: wire.FData, Seq: seq, SendTime: sent, Packet: dataPacket(seq)}
}

// TestReliableAcksOncePerTurn feeds one host turn 40 data frames — 1 to
// 40 without 20, and a second copy of 5 — and asserts exactly one ack
// leaves, at the turn's end: cumulative through 19, selective over 21 to
// 40, echoing the newest frame's send time. An ack still owed when the
// endpoint closes is never sent, and an env that hosts no turns, or a host
// with no turn open, gets one ack per data frame as before.
func TestReliableAcksOncePerTurn(t *testing.T) {
	sched := sim.NewScheduler(1)
	host := &turnHost{ackRecorder: &ackRecorder{clock: sched}}
	r := NewReliable(host, ReliableConfig{})
	host.open = true
	var sent time.Duration
	for seq := uint32(1); seq <= 40; seq++ {
		if seq == 20 {
			continue
		}
		sent += time.Millisecond
		r.HandleFrame(dataFrame(seq, sent))
		if seq == 30 {
			sent += time.Millisecond
			r.HandleFrame(dataFrame(5, sent))
		}
	}
	if got := acksIn(host.sent); len(got) != 0 {
		t.Fatalf("%d acks left inside the turn, want none before it ends", len(got))
	}
	host.endTurn()
	got := acksIn(host.sent)
	if len(got) != 1 {
		t.Fatalf("the turn sent %d acks, want one", len(got))
	}
	ack := got[0]
	// Bit d-1 of AckBits is sequence Ack+d: 21 … 40 are bits 1 … 20.
	wantBits := uint64(1)<<21 - 2
	if ack.Ack != 19 || ack.AckBits != wantBits || ack.SendTime != sent {
		t.Fatalf("ack = cum %d bits %#x echo %v; want cum 19, bits %#x, echo %v",
			ack.Ack, ack.AckBits, ack.SendTime, wantBits, sent)
	}
	if st := r.Stats(); st.Acks != 1 || st.Delivered != 39 || st.DuplicatesDropped != 1 {
		t.Fatalf("stats = %d acks, %d delivered, %d duplicates; want 1, 39, 1", st.Acks, st.Delivered, st.DuplicatesDropped)
	}

	// No turn open: the host's endpoint acks at once.
	r.HandleFrame(dataFrame(41, sent))
	if got := acksIn(host.sent); len(got) != 2 || got[1].SendTime != sent {
		t.Fatalf("a frame outside any turn left %d acks in all, want its own second one", len(got))
	}

	// Closed with an ack owed: the turn's end sends nothing.
	closing := &turnHost{ackRecorder: &ackRecorder{clock: sched}, open: true}
	c := NewReliable(closing, ReliableConfig{})
	c.HandleFrame(dataFrame(1, time.Millisecond))
	c.Close()
	closing.endTurn()
	if got := acksIn(closing.sent); len(got) != 0 {
		t.Fatalf("a closed endpoint sent %d acks at the turn's end", len(got))
	}

	// An env without turns: one ack per data frame, duplicates included.
	plain := &ackRecorder{clock: sched}
	p := NewReliable(plain, ReliableConfig{})
	for seq := uint32(1); seq <= 40; seq++ {
		p.HandleFrame(dataFrame(seq, time.Duration(seq)))
	}
	p.HandleFrame(dataFrame(5, 41))
	if got := acksIn(plain.sent); len(got) != 41 || p.Stats().Acks != 41 {
		t.Fatalf("an env without turns sent %d acks (counted %d) for 41 data frames, want 41",
			len(got), p.Stats().Acks)
	}
}

// acksIn returns the acks among frames, in order.
func acksIn(frames []wire.Frame) []wire.Frame {
	var out []wire.Frame
	for _, f := range frames {
		if f.Kind == wire.FAck {
			out = append(out, f)
		}
	}
	return out
}
