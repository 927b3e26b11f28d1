package link

import (
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// evictLog records what a ring lets go of, in order.
type evictLog struct{ seqs, vals []uint32 }

func (l *evictLog) evict(seq, v uint32) {
	l.seqs = append(l.seqs, seq)
	l.vals = append(l.vals, v)
}

// TestSeqRingEvictsExactlySeqMinusN stores a run of consecutive sequences:
// each store past the first N displaces exactly seq − N, and a lookup hits
// exactly the last N.
func TestSeqRingEvictsExactlySeqMinusN(t *testing.T) {
	const n = 8
	var log evictLog
	r := NewSeqRing(n, log.evict)
	for seq := uint32(1); seq <= 20; seq++ {
		r.Put(seq, seq*10)
		if want := int(min(seq, n)); r.Len() != want {
			t.Fatalf("after seq %d the ring holds %d, want %d", seq, r.Len(), want)
		}
		if seq > n && (len(log.seqs) != int(seq-n) || log.seqs[seq-n-1] != seq-n || log.vals[seq-n-1] != (seq-n)*10) {
			t.Fatalf("storing %d evicted %v (values %v), want exactly %d", seq, log.seqs, log.vals, seq-n)
		}
	}
	for seq := uint32(0); seq <= 30; seq++ {
		v, ok := r.Get(seq)
		if held := seq >= 13 && seq <= 20; ok != held || ok && v != seq*10 {
			t.Fatalf("Get(%d) = %d, %v", seq, v, ok)
		}
	}
	r.Clear()
	if r.Len() != 0 || len(log.seqs) != 20 {
		t.Fatalf("Clear left %d held after %d evictions, want 0 after 20", r.Len(), len(log.seqs))
	}
	if _, ok := r.Get(20); ok {
		t.Fatal("cleared ring still answers")
	}
}

// TestSeqRingStaleSlotMisses asks for sequences that share a slot with the
// one stored: the slot checks its sequence, so they miss.
func TestSeqRingStaleSlotMisses(t *testing.T) {
	const n = 8
	r := NewSeqRing[string](n, nil)
	if _, ok := r.Get(5); ok {
		t.Fatal("empty ring answers")
	}
	r.Put(5, "five")
	before := uint32(5)
	before -= n // the same slot, one lap back across zero
	for _, seq := range []uint32{5 + n, 5 + 2*n, before} {
		if v, ok := r.Get(seq); ok {
			t.Fatalf("Get(%d) = %q from the slot of 5", seq, v)
		}
	}
	// A skipped stretch leaves an old entry behind; the newcomer to its
	// slot displaces it however far apart the two are.
	r.Put(5+3*n, "later")
	if _, ok := r.Get(5); ok {
		t.Fatal("displaced entry still answers")
	}
	if v, ok := r.Get(5 + 3*n); !ok || v != "later" || r.Len() != 1 {
		t.Fatalf("Get = %q, %v with %d held", v, ok, r.Len())
	}
}

// TestSeqRingSurvivesWrap runs the sequence space past 2^32. With N a
// power of two the index is continuous there and the ring keeps exactly
// the last N; with any N a lookup never returns another sequence's value.
func TestSeqRingSurvivesWrap(t *testing.T) {
	for _, n := range []uint32{8, 10} {
		var log evictLog
		r := NewSeqRing(int(n), log.evict)
		start := ^uint32(0) - 11
		for i := uint32(0); i < 40; i++ {
			seq := start + i
			r.Put(seq, seq)
			if v, ok := r.Get(seq); !ok || v != seq {
				t.Fatalf("n=%d: just-stored %d reads %d, %v", n, seq, v, ok)
			}
			for back := uint32(0); back < 2*n; back++ {
				if v, ok := r.Get(seq - back); ok && v != seq-back {
					t.Fatalf("n=%d: Get(%d) = %d", n, seq-back, v)
				}
			}
			if n == 8 {
				for back := uint32(0); back <= i && back < 2*n; back++ {
					if _, ok := r.Get(seq - back); ok != (back < n) {
						t.Fatalf("n=8: at %d, %d back held=%v", seq, back, ok)
					}
				}
			}
		}
		if n == 8 {
			for i, seq := range log.seqs {
				if seq != start+uint32(i) {
					t.Fatalf("n=8: eviction %d was %d, want %d", i, seq, start+uint32(i))
				}
			}
		}
	}
}

// directEnd is a loss-free link with no delay: a transmitted frame is
// handed to the peer endpoint inside the call that borrows it.
type directEnd struct {
	clock     sim.Clock
	peer      Protocol
	delivered int
}

func (e *directEnd) Clock() sim.Clock { return e.clock }

func (e *directEnd) Transmit(f *wire.Frame) {
	if e.peer != nil {
		e.peer.HandleFrame(f)
	}
}

func (e *directEnd) Deliver(*wire.Packet) { e.delivered++ }

// TestStrikesSendAllocBudget pins NM-Strikes' loss-free steady state at
// zero allocations per message (`make bench-guard`): Send captures the
// packet over the slot the history ring just evicted,
// and the receiver records and delivers — on both clocks.
func TestStrikesSendAllocBudget(t *testing.T) {
	loop := sim.NewLoop()
	defer loop.Close()
	clocks := map[string]sim.Clock{
		"scheduler": sim.NewScheduler(1),
		"realtime":  sim.NewRealtimeClock(loop),
	}
	for name, clock := range clocks {
		t.Run(name, func(t *testing.T) {
			cfg := StrikesConfig{HistoryLimit: 32}
			a, b := &directEnd{clock: clock}, &directEnd{clock: clock}
			tx, rx := NewStrikes(a, cfg), NewStrikes(b, cfg)
			a.peer = rx
			p := dataPacket(1)
			p.Payload = make([]byte, 1200)
			send := func() { tx.Send(p) }
			for i := 0; i < 64; i++ {
				send() // fill the history ring
			}
			if avg := testing.AllocsPerRun(1000, send); avg != 0 {
				t.Fatalf("send→deliver allocates %.2f allocs/op, budget is 0", avg)
			}
			if st := rx.Stats(); b.delivered < 1064 || st.Requests != 0 || tx.history.Len() != 32 {
				t.Fatalf("delivered %d with %d requests and %d in history, want every send delivered once and 32 kept",
					b.delivered, st.Requests, tx.history.Len())
			}
		})
	}
}

// TestStrikesCloseDropsHistory checks a torn-down link holds no packet
// memory: every slot leaves the ring, the spare slot with them, and a
// request scheduled before Close retransmits nothing after it.
func TestStrikesCloseDropsHistory(t *testing.T) {
	sched := sim.NewScheduler(1)
	s := NewStrikes(&directEnd{clock: sched}, StrikesConfig{HistoryLimit: 10})
	for i := uint32(1); i <= 50; i++ {
		s.Send(dataPacket(i))
	}
	if sp, ok := s.history.Get(50); !ok || sp.pkt.FlowSeq != 50 || len(sp.bytes) != len(dataPacket(50).Payload) {
		t.Fatal("newest sequence not captured")
	}
	if s.history.Len() != 10 || s.spare == nil {
		t.Fatalf("%d sequences held (spare %v), want 10 and the last evicted slot", s.history.Len(), s.spare)
	}
	s.HandleFrame(&wire.Frame{Proto: wire.LPRealTime, Kind: wire.FReq, Seq: 45, Ack: uint32(50 * time.Millisecond / time.Microsecond)})
	s.Close()
	sched.RunFor(time.Second)
	if s.history.Len() != 0 || s.spare != nil || len(s.retransEpoch) != 0 {
		t.Fatalf("after Close: %d sequences, spare %v, %d epochs", s.history.Len(), s.spare, len(s.retransEpoch))
	}
	if got := s.Stats().Retransmissions; got != 0 {
		t.Fatalf("%d retransmissions from a closed link", got)
	}
}
