package link

import (
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// TestReliableTeardownMidRecovery arms every Reliable timer class —
// the sender's RTO over unacked frames and the receiver's spaced
// retransmission requests over a detected gap — then tears the link down
// and asserts that no frame is transmitted, nothing is delivered, and the
// retransmission buffers are released.
func TestReliableTeardownMidRecovery(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := ReliableConfig{RTOInit: 50 * time.Millisecond, ReqInterval: 25 * time.Millisecond}
	p := reliablePair(sched, 10*time.Millisecond, cfg)
	// Drop the first data frame: the sender keeps seq 1 unacked (RTO
	// armed), and the receiver sees seq 2 arrive past the gap (request
	// timer armed).
	p.a.drop = func(f *wire.Frame) bool { return f.Kind == wire.FData && f.Seq == 1 }
	p.a.proto.Send(dataPacket(1))
	p.a.proto.Send(dataPacket(2))
	sched.RunFor(15 * time.Millisecond)
	rel := p.a.proto.(*Reliable)
	if rel.OutstandingFrames() == 0 {
		t.Fatal("setup failed: no unacked frames before teardown")
	}

	p.a.proto.Close()
	p.b.proto.Close()
	sentA, sentB := p.a.sentWire, p.b.sentWire
	deliveredB := len(p.b.delivered)

	sched.RunFor(time.Minute)
	if p.a.sentWire != sentA || p.b.sentWire != sentB {
		t.Fatalf("torn-down link transmitted: a %d->%d, b %d->%d",
			sentA, p.a.sentWire, sentB, p.b.sentWire)
	}
	if len(p.b.delivered) != deliveredB {
		t.Fatalf("torn-down link delivered %d more packets", len(p.b.delivered)-deliveredB)
	}
	if rel.OutstandingFrames() != 0 {
		t.Fatalf("close left %d frames in retransmission buffers", rel.OutstandingFrames())
	}
	if n := sched.Pending(); n != 0 {
		t.Fatalf("%d scheduler events still pending after teardown drained", n)
	}

	// A closed endpoint must also ignore late sends and frames.
	p.a.proto.Send(dataPacket(3))
	sched.RunFor(time.Second)
	if p.a.sentWire != sentA {
		t.Fatal("closed protocol transmitted on Send")
	}
}

// TestStrikesTeardownMidRecovery arms both NM-Strikes timer classes — the
// receiver's N spaced requests for a missing packet and the sender's M
// spaced retransmissions of a requested packet — then tears the link down
// and asserts no further frames or deliveries occur.
func TestStrikesTeardownMidRecovery(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := StrikesConfig{N: 3, M: 2, Budget: 160 * time.Millisecond, RTT: 20 * time.Millisecond}
	p := newPipe(sched, 10*time.Millisecond)
	p.a.proto = NewStrikes(p.a, cfg)
	p.b.proto = NewStrikes(p.b, cfg)
	// Drop seq 2 so the receiver detects the gap at seq 3 and schedules
	// its strikes; the first request reaches the sender and arms the
	// M-retransmission epoch before teardown.
	p.a.drop = func(f *wire.Frame) bool {
		return f.Kind == wire.FData && f.Seq == 2 && f.Packet != nil && !f.Packet.Flags.Has(wire.FRetrans)
	}
	for i := uint32(1); i <= 3; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	// Long enough for gap detection and the first request round-trip to
	// start the sender's retransmission epoch, short enough that later
	// strikes and the Mth copies are still pending.
	sched.RunFor(21 * time.Millisecond)
	if p.a.proto.Stats().Requests+p.b.proto.Stats().Requests == 0 {
		t.Fatal("setup failed: no retransmission request in flight before teardown")
	}

	p.a.proto.Close()
	p.b.proto.Close()
	sentA, sentB := p.a.sentWire, p.b.sentWire
	deliveredB := len(p.b.delivered)

	sched.RunFor(time.Minute)
	if p.a.sentWire != sentA || p.b.sentWire != sentB {
		t.Fatalf("torn-down link transmitted: a %d->%d, b %d->%d",
			sentA, p.a.sentWire, sentB, p.b.sentWire)
	}
	if len(p.b.delivered) != deliveredB {
		t.Fatalf("torn-down link delivered %d more packets", len(p.b.delivered)-deliveredB)
	}
	if n := sched.Pending(); n != 0 {
		t.Fatalf("%d scheduler events still pending after teardown drained", n)
	}
}
