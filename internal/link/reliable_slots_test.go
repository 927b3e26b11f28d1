package link

import (
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// storedPacket captures a data packet into a private pool so the tests can
// observe the buffer's lifecycle through the pool's Recycled counter.
func storedPacket(pool *wire.BufPool, seq uint32) (*wire.Packet, *wire.Buf) {
	var p wire.Packet
	buf := wire.CapturePacket(&p, dataPacket(seq), pool)
	return &p, buf
}

// TestReliableSendStoredReleasesOnAck checks the zero-copy handoff: a
// pooled buffer given to SendStored must be released (recycled to its
// pool) once the frame is acknowledged — and not before.
func TestReliableSendStoredReleasesOnAck(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{})
	pool := wire.NewBufPool(nil)
	pkt, buf := storedPacket(pool, 1)
	p.a.proto.(*Reliable).SendStored(pkt, buf)
	if got := pool.Stats().Recycled.Load(); got != 0 {
		t.Fatalf("buffer recycled before ack (%d bytes)", got)
	}
	sched.RunFor(time.Second)
	if len(p.b.delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(p.b.delivered))
	}
	if got := pool.Stats().Recycled.Load(); got == 0 {
		t.Fatal("ack did not release the stored buffer")
	}
}

// TestReliableSendStoredReleasesOnRetryExhaustion checks the give-up path:
// a frame that never gets acked must still release its buffer when the
// sender abandons it after MaxRetries.
func TestReliableSendStoredReleasesOnRetryExhaustion(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{MaxRetries: 3})
	p.a.drop = func(f *wire.Frame) bool { return true } // black hole
	pool := wire.NewBufPool(nil)
	pkt, buf := storedPacket(pool, 1)
	p.a.proto.(*Reliable).SendStored(pkt, buf)
	sched.RunFor(time.Minute)
	if got := p.a.proto.(*Reliable).OutstandingFrames(); got != 0 {
		t.Fatalf("%d frames still outstanding after give-up", got)
	}
	if got := pool.Stats().Recycled.Load(); got == 0 {
		t.Fatal("retry exhaustion did not release the stored buffer")
	}
}

// TestReliableSendStoredReleasesOnClose checks teardown: buffers held by
// unacked slots and the wait queue are all released on Close.
func TestReliableSendStoredReleasesOnClose(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{Window: 4})
	p.a.drop = func(f *wire.Frame) bool { return true }
	pool := wire.NewBufPool(nil)
	var want uint64
	for i := uint32(1); i <= 12; i++ { // 4 in flight + 8 queued
		pkt, buf := storedPacket(pool, i)
		want += uint64(cap(buf.B))
		p.a.proto.(*Reliable).SendStored(pkt, buf)
	}
	p.a.proto.Close()
	if got := pool.Stats().Recycled.Load(); got != want {
		t.Fatalf("close recycled %d bytes, want %d", got, want)
	}
}

// TestReliableQueueRingRecyclesSlots checks the wait-queue ring and slot
// freelist under sustained window pressure: a long send burst must not
// leave slots or queue capacity behind once everything is acked.
func TestReliableQueueRingRecyclesSlots(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := reliablePair(sched, 10*time.Millisecond, ReliableConfig{Window: 8})
	for i := uint32(1); i <= 500; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.RunFor(time.Minute)
	if len(p.b.delivered) != 500 {
		t.Fatalf("delivered %d, want 500", len(p.b.delivered))
	}
	r := p.a.proto.(*Reliable)
	if got := r.OutstandingFrames(); got != 0 {
		t.Fatalf("%d frames outstanding after full ack", got)
	}
	for i, seq := range deliveredSeqs(p.b) {
		if seq != uint32(i+1) {
			t.Fatalf("delivery order broken at %d: %d", i, seq)
		}
	}
}
