package link

import (
	"math/rand"
	"slices"
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
	r := NewSeqRing(n, nil, log.evict)
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
	r := NewSeqRing[string](n, nil, nil)
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
		r := NewSeqRing(int(n), nil, log.evict)
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

// fixedRing is the SeqRing this package had before it grew on demand: n
// slots from the first Put. It stays here as the reference a ring whose
// owner wants everything is held to.
type fixedRing struct {
	slots []seqSlot[uint32]
	evict func(seq, v uint32)
}

func (r *fixedRing) Put(seq, v uint32) {
	s := &r.slots[seq%uint32(len(r.slots))]
	if s.full {
		r.evict(s.seq, s.v)
	}
	*s = seqSlot[uint32]{seq: seq, full: true, v: v}
}

func (r *fixedRing) Get(seq uint32) (uint32, bool) {
	s := &r.slots[seq%uint32(len(r.slots))]
	return s.v, s.full && s.seq == seq
}

// TestSeqRingGrowth stores the sequences a session flow does — ascending,
// with single skips and skipped stretches where a send was refused — into
// a ring with no keep predicate and into a fixed ring of n, from sequence 1
// and across the 2^32 wrap, for n a power of two, not one, and below the
// floor. The two answer every Get alike and evict the same values in the
// same order; the growing one starts at the floor and ends at n.
func TestSeqRingGrowth(t *testing.T) {
	for _, n := range []uint32{100, 256, 300, 1000, 4096} {
		for _, start := range []uint32{1, ^uint32(0) - 3*n/2} {
			for round := int64(0); round < 6; round++ {
				seqRingGrowthRound(t, n, start, rand.New(rand.NewSource(int64(n)+int64(start)+round)))
			}
		}
	}
}

func seqRingGrowthRound(t *testing.T, n, start uint32, rng *rand.Rand) {
	var got, want evictLog
	r := NewSeqRing(int(n), nil, got.evict)
	ref := &fixedRing{slots: make([]seqSlot[uint32], n), evict: want.evict}
	seq, puts := start, 0
	for seq-start < 6*n {
		switch k := rng.Intn(int(n)/2 + 20); {
		case k == 0:
			seq += 1 + uint32(rng.Intn(int(n)))
		case k == 1:
			// Exactly a lap or two of the full ring ahead: the store a fixed
			// ring answers by evicting, wherever a smaller ring would put it.
			seq += n * uint32(1+rng.Intn(2))
		case k < 2+int(n)/50:
			seq += 2
		default:
			seq++
		}
		r.Put(seq, seq^0x5a5a)
		ref.Put(seq, seq^0x5a5a)
		puts++
		if len(r.slots) > int(n) || puts == 1 && len(r.slots) != min(int(n), seqRingFloor) {
			t.Fatalf("n=%d: %d slots after %d stores", n, len(r.slots), puts)
		}
		lo := seq - 2*n - 2
		if puts%61 != 0 {
			lo = seq - 8 // every store checks its neighbourhood, every 61st the whole reach
		}
		for q := lo; q != seq+3; q++ {
			gv, gok := r.Get(q)
			wv, wok := ref.Get(q)
			if gok != wok || gok && gv != wv {
				t.Fatalf("n=%d from %#x: after storing %#x, Get(%#x) = %#x, %v; a fixed ring says %#x, %v",
					n, start, seq, q, gv, gok, wv, wok)
			}
		}
		if len(got.seqs) != len(want.seqs) {
			t.Fatalf("n=%d from %#x: storing %#x makes %d evictions, a fixed ring %d", n, start, seq, len(got.seqs), len(want.seqs))
		}
	}
	if !slices.Equal(got.seqs, want.seqs) || !slices.Equal(got.vals, want.vals) {
		t.Fatalf("n=%d from %#x: evicted %v, a fixed ring %v", n, start, got.seqs, want.seqs)
	}
	if r.Len() != puts-len(got.seqs) {
		t.Fatalf("n=%d: holds %d in %d slots after %d stores and %d evictions", n, r.Len(), len(r.slots), puts, len(got.seqs))
	}
}

// TestSeqRingGrowsOnlyForWantedValues gives the ring a keep predicate: a
// store that would displace an unwanted value displaces it and the ring
// stays as it is; one that would displace a wanted value doubles the slots
// and loses nothing; and at n slots the wanted value goes like any other.
func TestSeqRingGrowsOnlyForWantedValues(t *testing.T) {
	var log evictLog
	wantFrom := uint32(1 << 30)
	r := NewSeqRing(1024, func(held, _ uint32) bool { return held >= wantFrom }, log.evict)
	for seq := uint32(1); seq <= 1000; seq++ {
		r.Put(seq, seq)
	}
	if len(r.slots) != seqRingFloor || r.Len() != seqRingFloor || len(log.seqs) != 1000-seqRingFloor {
		t.Fatalf("unwanted values: %d held in %d slots, %d evicted", r.Len(), len(r.slots), len(log.seqs))
	}
	wantFrom = 901
	for seq := uint32(1001); seq <= 1400; seq++ {
		r.Put(seq, seq)
		for q := wantFrom; q <= seq; q++ {
			if v, ok := r.Get(q); !ok || v != q {
				t.Fatalf("after storing %d in %d slots, wanted %d reads %d, %v", seq, len(r.slots), q, v, ok)
			}
		}
	}
	if len(r.slots) != 512 || r.Len() != 500 {
		t.Fatalf("500 wanted values: %d held in %d slots", r.Len(), len(r.slots))
	}
	for seq := uint32(1401); seq <= 3000; seq++ {
		r.Put(seq, seq)
	}
	if len(r.slots) != 1024 || r.Len() != 1024 {
		t.Fatalf("at the bound: %d held in %d slots", r.Len(), len(r.slots))
	}
	if _, ok := r.Get(3000 - 1024); ok {
		t.Fatal("a full-size ring kept a value past n")
	}
	for i, seq := range log.seqs {
		if i > 0 && seq <= log.seqs[i-1] {
			t.Fatalf("eviction %d was %d after %d", i, seq, log.seqs[i-1])
		}
	}
}

// directEnd is a link with no delay: a transmitted frame is handed to the
// peer endpoint inside the call that borrows it, unless drop loses it.
type directEnd struct {
	clock     sim.Clock
	peer      Protocol
	drop      func(*wire.Frame) bool
	delivered int
}

func (e *directEnd) Clock() sim.Clock { return e.clock }

func (e *directEnd) Transmit(f *wire.Frame) {
	if e.peer != nil && (e.drop == nil || !e.drop(f)) {
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
// request answered before Close retransmits nothing after it and leaves no
// timer armed.
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
	if sched.Pending() != 1 {
		t.Fatalf("%d timers armed by a request, want the slot's one", sched.Pending())
	}
	s.Close()
	if s.history.Len() != 0 || s.spare != nil || sched.Pending() != 0 {
		t.Fatalf("after Close: %d sequences, spare %v, %d timers armed", s.history.Len(), s.spare, sched.Pending())
	}
	sched.RunFor(time.Second)
	if got := s.Stats().Retransmissions; got != 0 {
		t.Fatalf("%d retransmissions from a closed link", got)
	}
}

// TestStrikesHistoryFootprint sends 1200-byte packets at a fixed rate on a
// virtual clock and reads what the endpoint holds from Stats: a link slow
// enough for the floor to cover Budget + RTT never grows its history, a
// faster one grows it to the next doubling that covers the horizon, and one
// too fast for HistoryLimit stops there. At every rate a request for any
// packet sent inside the horizon finds it, a send at the size reached
// allocates nothing, and Close lets go of all of it.
func TestStrikesHistoryFootprint(t *testing.T) {
	for _, tc := range []struct {
		perSec, limit, wantSlots int
	}{
		{400, 0, seqRingFloor}, // 72 packets in 180 ms
		{2000, 0, 512},         // 360
		{20000, 0, 4096},       // 3600 of the default 4096
		{20000, 1000, 1000},    // a bound that is no power of two
		{100000, 0, 4096},      // 18 000 wanted, 4096 allowed
	} {
		sched := sim.NewScheduler(1)
		s := NewStrikes(&directEnd{clock: sched}, StrikesConfig{HistoryLimit: tc.limit})
		horizon := s.cfg.Budget + s.cfg.RTT
		gap := time.Second / time.Duration(tc.perSec)
		p := dataPacket(1)
		p.Payload = make([]byte, 1200)
		const sends = 10000
		for i := 1; i <= sends; i++ {
			s.Send(p)
			if i%499 == 0 || i == sends {
				// Packet i−k left k gaps ago.
				inHorizon := min(int((horizon-1)/gap)+1, s.cfg.HistoryLimit, i)
				for k := 0; k < inHorizon; k++ {
					if sp, ok := s.history.Get(uint32(i - k)); !ok || sp.at != sched.Now()-time.Duration(k)*gap {
						t.Fatalf("%d pkt/s: after %d sends the one %v old is gone (%d slots)", tc.perSec, i, time.Duration(k)*gap, len(s.history.slots))
					}
				}
			}
			sched.RunFor(gap)
		}
		st := s.Stats()
		if len(s.history.slots) != tc.wantSlots || st.HistoryPackets != tc.wantSlots || st.HistoryBytes != 1200*tc.wantSlots {
			t.Fatalf("%d pkt/s: %d packets and %d bytes held in %d slots, want %d of 1200 bytes",
				tc.perSec, st.HistoryPackets, st.HistoryBytes, len(s.history.slots), tc.wantSlots)
		}
		// Growth was set-up; at its steady size a send captures over the slot
		// it displaces.
		if avg := testing.AllocsPerRun(300, func() { s.Send(p); sched.RunFor(gap) }); avg != 0 {
			t.Fatalf("%d pkt/s: a send at steady state allocates %.2f times", tc.perSec, avg)
		}
		if st.WindowBytes != 1<<16/8 {
			t.Fatalf("receive window takes %d bytes, want 8 KiB", st.WindowBytes)
		}
		s.Close()
		if st := s.Stats(); st.HistoryPackets != 0 || st.HistoryBytes != 0 || s.history.slots != nil || s.spare != nil {
			t.Fatalf("%d pkt/s: after Close %d packets, %d bytes, %d slots", tc.perSec, st.HistoryPackets, st.HistoryBytes, len(s.history.slots))
		}
	}
}
