package link

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// pipe wires two protocol endpoints through a latency/loss channel,
// marshaling every frame through the wire encoding.
type pipe struct {
	sched *sim.Scheduler
	a, b  *pipeEnd
}

type pipeEnd struct {
	sched   *sim.Scheduler
	peer    *pipeEnd
	latency time.Duration
	drop    func(f *wire.Frame) bool
	// impair, when set, decides what becomes of a frame drop let through:
	// it returns the extra delay of each copy to deliver, so none loses
	// the frame and two duplicate it.
	impair    func(f *wire.Frame) []time.Duration
	proto     Protocol
	delivered []*wire.Packet
	sentWire  int
}

func newPipe(sched *sim.Scheduler, latency time.Duration) *pipe {
	p := &pipe{sched: sched}
	p.a = &pipeEnd{sched: sched, latency: latency}
	p.b = &pipeEnd{sched: sched, latency: latency}
	p.a.peer = p.b
	p.b.peer = p.a
	return p
}

func (e *pipeEnd) Clock() sim.Clock { return e.sched }

func (e *pipeEnd) Transmit(f *wire.Frame) {
	e.sentWire++
	buf, err := f.Marshal()
	if err != nil {
		panic(err)
	}
	if e.drop != nil && e.drop(f) {
		return
	}
	if e.impair == nil {
		e.arrive(buf, e.latency)
		return
	}
	for _, extra := range e.impair(f) {
		e.arrive(buf, e.latency+extra)
	}
}

// arrive hands the peer a copy of the marshaled frame d from now.
func (e *pipeEnd) arrive(buf []byte, d time.Duration) {
	e.sched.After(d, func() {
		g, _, err := wire.UnmarshalFrame(buf)
		if err != nil {
			panic(err)
		}
		if e.peer.proto != nil {
			e.peer.proto.HandleFrame(g)
		}
	})
}

func (e *pipeEnd) Deliver(p *wire.Packet) {
	e.delivered = append(e.delivered, p)
}

func dataPacket(seq uint32) *wire.Packet {
	return &wire.Packet{
		Type:    wire.PTData,
		Route:   wire.RouteLinkState,
		Src:     1,
		Dst:     2,
		FlowSeq: seq,
		Payload: []byte{byte(seq), byte(seq >> 8)},
	}
}

func deliveredSeqs(end *pipeEnd) []uint32 {
	out := make([]uint32, 0, len(end.delivered))
	for _, p := range end.delivered {
		out = append(out, p.FlowSeq)
	}
	return out
}

// --- seqWindow ---

func TestSeqWindowBasic(t *testing.T) {
	w := newSeqWindow(64)
	if w.Seen(1) {
		t.Fatal("fresh window saw seq 1")
	}
	if !w.Record(1) || !w.Record(2) {
		t.Fatal("Record of fresh seqs = false")
	}
	if w.Cum() != 2 {
		t.Fatalf("Cum = %d, want 2", w.Cum())
	}
	if w.Record(1) {
		t.Fatal("Record duplicate = true")
	}
	if !w.Record(4) {
		t.Fatal("Record(4) = false")
	}
	if w.Cum() != 2 {
		t.Fatalf("Cum = %d, want 2 (gap at 3)", w.Cum())
	}
	if w.AckBits() != 0b10 {
		t.Fatalf("AckBits = %b, want 10", w.AckBits())
	}
	miss := w.Missing(4, 10, nil)
	if len(miss) != 1 || miss[0] != 3 {
		t.Fatalf("Missing = %v, want [3]", miss)
	}
	if !w.Record(3) {
		t.Fatal("Record(3) = false")
	}
	if w.Cum() != 4 {
		t.Fatalf("Cum = %d, want 4", w.Cum())
	}
}

func TestSeqWindowFarAheadDropped(t *testing.T) {
	w := newSeqWindow(8)
	if w.Record(100) {
		t.Fatal("Record far beyond window = true")
	}
}

// TestSeqWindowMatchesReference compares the ring implementation against a
// map-based reference over random in-window insertion orders.
func TestSeqWindowMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := newSeqWindow(32)
		ref := make(map[uint32]bool)
		refCum := uint32(0)
		for i := 0; i < 500; i++ {
			// Bias toward the valid window around the reference cum.
			seq := refCum + uint32(r.Intn(40)) + 1
			if r.Intn(4) == 0 && refCum > 0 {
				seq = uint32(r.Intn(int(refCum))) + 1
			}
			inWindow := seq > refCum && seq <= refCum+32
			wantNew := inWindow && !ref[seq] && seq > refCum
			got := w.Record(seq)
			if inWindow && !ref[seq] {
				ref[seq] = true
				for ref[refCum+1] {
					delete(ref, refCum+1)
					refCum++
				}
			}
			if got != wantNew {
				return false
			}
			if w.Cum() != refCum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// --- BestEffort ---

func TestBestEffortDelivers(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := newPipe(sched, 10*time.Millisecond)
	p.a.proto = NewBestEffort(p.a)
	p.b.proto = NewBestEffort(p.b)
	for i := uint32(1); i <= 10; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.Run()
	if len(p.b.delivered) != 10 {
		t.Fatalf("delivered %d, want 10", len(p.b.delivered))
	}
	st := p.a.proto.Stats()
	if st.DataSent != 10 || st.Retransmissions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBestEffortNoRecovery(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := newPipe(sched, 10*time.Millisecond)
	n := 0
	p.a.drop = func(f *wire.Frame) bool {
		n++
		return n%5 == 0 // drop every 5th frame
	}
	p.a.proto = NewBestEffort(p.a)
	p.b.proto = NewBestEffort(p.b)
	for i := uint32(1); i <= 100; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.Run()
	if len(p.b.delivered) != 80 {
		t.Fatalf("delivered %d, want 80 (no recovery)", len(p.b.delivered))
	}
}

// TestSeqWindowWraparound drives the window across the 2^32 sequence
// boundary: a long-lived link session genuinely gets there, and before the
// switch to serial-number arithmetic every post-wrap frame compared as
// "ancient", permanently black-holing the link.
func TestSeqWindowWraparound(t *testing.T) {
	w := newSeqWindow(64)
	w.cum = 0xffffffff - 5
	start := w.cum
	for i := uint32(1); i <= 20; i++ {
		seq := start + i // crosses 0xffffffff -> 0 -> 1 ...
		if w.Seen(seq) {
			t.Fatalf("fresh seq %#x already seen", seq)
		}
		if !w.Record(seq) {
			t.Fatalf("Record(%#x) = false across wrap", seq)
		}
		if w.Cum() != seq {
			t.Fatalf("Cum = %#x after recording %#x", w.Cum(), seq)
		}
	}
	// Everything at or before the edge is seen, including pre-wrap seqs.
	for _, seq := range []uint32{start, 0xffffffff, 0, 1, w.Cum()} {
		if !w.Seen(seq) {
			t.Fatalf("Seen(%#x) = false after wrap", seq)
		}
	}
	// Out-of-order across the boundary: gap at the wrap itself.
	w2 := newSeqWindow(64)
	w2.cum = 0xfffffffe
	if !w2.Record(1) { // leaves 0xffffffff and 0 missing
		t.Fatal("Record(1) across wrap = false")
	}
	if w2.Cum() != 0xfffffffe {
		t.Fatalf("Cum = %#x, want unchanged before gap fill", w2.Cum())
	}
	miss := w2.Missing(1, 10, nil)
	if len(miss) != 2 || miss[0] != 0xffffffff || miss[1] != 0 {
		t.Fatalf("Missing across wrap = %#x, want [0xffffffff 0x0]", miss)
	}
	if !w2.Record(0xffffffff) || !w2.Record(0) {
		t.Fatal("Record of wrap-straddling gaps = false")
	}
	if w2.Cum() != 1 {
		t.Fatalf("Cum = %#x after filling wrap gap, want 1", w2.Cum())
	}
}

// TestSeqWindowWraparoundMatchesReference re-runs the map-based reference
// property test from several bases, including ones that straddle 2^32 and
// the int32 sign boundary, so serial arithmetic is exercised everywhere
// raw compares used to be.
func TestSeqWindowWraparoundMatchesReference(t *testing.T) {
	bases := []uint32{0, 0x7fffffff - 20, 0xffffff00, 0xffffffff - 15}
	for _, base := range bases {
		r := rand.New(rand.NewSource(int64(base) + 9))
		w := newSeqWindow(32)
		w.cum = base
		ref := make(map[uint64]bool)
		refCum := uint64(0) // relative to base
		for i := 0; i < 500; i++ {
			rel := refCum + uint64(r.Intn(40)) + 1
			if r.Intn(4) == 0 && refCum > 0 {
				rel = uint64(r.Intn(int(refCum))) + 1
			}
			seq := base + uint32(rel)
			inWindow := rel > refCum && rel <= refCum+32
			wantNew := inWindow && !ref[rel]
			if got := w.Record(seq); got != wantNew {
				t.Fatalf("base %#x: Record(%#x) = %v, want %v", base, seq, got, wantNew)
			}
			if inWindow && !ref[rel] {
				ref[rel] = true
				for ref[refCum+1] {
					delete(ref, refCum+1)
					refCum++
				}
			}
			if w.Cum() != base+uint32(refCum) {
				t.Fatalf("base %#x: Cum = %#x, want %#x", base, w.Cum(), base+uint32(refCum))
			}
			if seen := w.Seen(seq); seen != (rel <= refCum || ref[rel]) {
				t.Fatalf("base %#x: Seen(%#x) = %v, want %v", base, seq, seen, !seen)
			}
		}
	}
}

// TestSeqWindowMissingClampsAbsurdUpTo pins the event-loop DoS fix: a
// corrupt or hostile data frame carrying a huge sequence must scan at most
// the window capacity (anything beyond it could never have been recorded),
// and the endpoint that received it counts the clamp.
func TestSeqWindowMissingClampsAbsurdUpTo(t *testing.T) {
	w := newSeqWindow(64)
	if !w.Record(2) { // gap at 1
		t.Fatal("Record(2) = false")
	}
	miss := w.Missing(0x80000000, 1<<30, nil)
	// Sequences 1..64 scanned, of which only 2 was seen.
	if len(miss) != 63 || miss[0] != 1 || miss[1] != 3 {
		t.Fatalf("Missing clamped scan = %d entries starting %v, want 63 starting [1 3]", len(miss), miss[:2])
	}
	// An upTo serially at or before cum yields nothing.
	if got := w.Missing(0, 10, nil); got != nil {
		t.Fatalf("Missing(0) = %v, want nil", got)
	}
	// A sane upTo is unaffected.
	if got := w.Missing(4, 10, nil); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("Missing(4) = %v, want [1 3 4]", got)
	}

	// On a Reliable receiver the absurd frame is one clamp and a sane gap
	// none; the sender counted nothing.
	p := reliablePair(sim.NewScheduler(1), time.Millisecond, ReliableConfig{})
	p.b.proto.HandleFrame(&wire.Frame{Proto: wire.LPReliable, Kind: wire.FData, Seq: 0x80000000, Packet: dataPacket(1)})
	p.b.proto.HandleFrame(&wire.Frame{Proto: wire.LPReliable, Kind: wire.FData, Seq: 3, Packet: dataPacket(3)})
	if got := p.b.proto.Stats().MissingClamps; got != 1 {
		t.Fatalf("receiver MissingClamps = %d, want 1", got)
	}
	if got := p.a.proto.Stats().MissingClamps; got != 0 {
		t.Fatalf("sender MissingClamps = %d, want 0", got)
	}
}
