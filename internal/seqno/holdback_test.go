package seqno

import (
	"cmp"
	"encoding/binary"
	"math/rand/v2"
	"slices"
	"testing"

	"sonet/internal/wire"
)

// refHold is the hold-back buffer as a reliable or deadline flow's
// destination wrote it before HoldBack: held packets in a map, and
// deliverHeld sorting the sequences it passes. It is the reference
// HoldBack is checked against.
type refHold struct {
	next    uint32
	pending map[uint32]wire.Packet
	passed  []uint32
	got     []uint32
}

func newRefHold(next uint32) *refHold {
	return &refHold{next: next, pending: make(map[uint32]wire.Packet)}
}

func (r *refHold) arrive(p *wire.Packet) bool {
	seq := p.FlowSeq
	if !LE(r.next, seq) {
		return false
	}
	if seq == r.next {
		r.next++
		r.got = append(r.got, seq)
	} else {
		if _, dup := r.pending[seq]; dup {
			return false
		}
		r.pending[seq] = *p.Clone()
	}
	r.deliverHeld(r.next - 1)
	return true
}

func (r *refHold) seen(seq uint32) bool {
	_, held := r.pending[seq]
	return held || LT(seq, r.next)
}

// deliverHeld is the destination's release rule as it was written.
func (r *refHold) deliverHeld(through uint32) {
	if base, span := r.next, through-r.next; LE(base, through) {
		r.passed = r.passed[:0]
		for s := range r.pending {
			if s-base <= span {
				r.passed = append(r.passed, s)
			}
		}
		slices.SortFunc(r.passed, func(a, b uint32) int { return cmp.Compare(a-base, b-base) })
		for _, s := range r.passed {
			if held, ok := r.pending[s]; ok {
				delete(r.pending, s)
				r.next = s + 1
				r.got = append(r.got, held.FlowSeq)
			}
		}
		if r.next-base <= span {
			r.next = through + 1
		}
	}
	for {
		held, ok := r.pending[r.next]
		if !ok {
			return
		}
		delete(r.pending, r.next)
		r.next++
		r.got = append(r.got, held.FlowSeq)
	}
}

// holdRig drives a HoldBack the way a destination does and logs what it
// delivers, reading each sequence back from the captured payload.
type holdRig struct {
	h   *HoldBack
	got []uint32
	// deliver is the rig's one delivery callback.
	deliver func(*wire.Packet)
}

func newHoldRig(next uint32) *holdRig {
	r := &holdRig{h: NewHoldBack(next)}
	r.deliver = func(p *wire.Packet) {
		if seq := binary.BigEndian.Uint32(p.Payload); seq != p.FlowSeq {
			panic("delivered payload is not the packet's")
		}
		r.got = append(r.got, p.FlowSeq)
	}
	return r
}

func (r *holdRig) arrive(p *wire.Packet) bool {
	if !LE(r.h.Next(), p.FlowSeq) {
		return false
	}
	if _, ok := r.h.Arrive(p.FlowSeq, p, r.deliver); !ok {
		return false
	}
	r.h.Release(r.h.Next()-1, r.deliver)
	return true
}

// seqPacket is a packet numbered seq whose payload carries seq too, so a
// capture that mixed two packets up shows.
func seqPacket(seq uint32, scratch []byte) *wire.Packet {
	binary.BigEndian.PutUint32(scratch, seq)
	return &wire.Packet{Type: wire.PTData, FlowSeq: seq, Payload: scratch[:4]}
}

// holdOp is one step of a differential run: an arrival, or a Release
// through a sequence (a deadline flush or a recovery give-up).
type holdOp struct {
	release bool
	seq     uint32
}

// compareHoldBack runs ops against a HoldBack and the reference from next, and
// fails at the first step where they differ: what either accepted,
// delivered, owes next, holds or reports seen.
func compareHoldBack(t *testing.T, next uint32, ops []holdOp) (delivered int) {
	t.Helper()
	ref, rig := newRefHold(next), newHoldRig(next)
	scratch := make([]byte, 4)
	checked := 0 // deliveries compared so far
	for i, op := range ops {
		if op.release {
			ref.deliverHeld(op.seq)
			rig.h.Release(op.seq, rig.deliver)
		} else {
			p := seqPacket(op.seq, scratch)
			want := ref.arrive(p)
			if got := rig.arrive(p); got != want {
				t.Fatalf("step %d (%+v): accepted %v, reference %v", i, op, got, want)
			}
			// The caller reuses its buffer: what is held must be a copy.
			binary.BigEndian.PutUint32(scratch, ^op.seq)
		}
		if len(rig.got) != len(ref.got) || !slices.Equal(rig.got[checked:], ref.got[checked:]) ||
			rig.h.Next() != ref.next || rig.h.Len() != len(ref.pending) {
			t.Fatalf("step %d (%+v): delivered %v, next %#x, %d held; reference %v, %#x, %d",
				i, op, rig.got, rig.h.Next(), rig.h.Len(), ref.got, ref.next, len(ref.pending))
		}
		checked = len(ref.got)
		for _, d := range []uint32{0, 1, 2, 5, 1 << 20, 1<<31 - 1, 1 << 31} {
			for _, s := range []uint32{ref.next + d, ref.next - d, op.seq} {
				if rig.h.Seen(s) != ref.seen(s) {
					t.Fatalf("step %d (%+v): Seen(%#x) = %v, reference %v", i, op, s, rig.h.Seen(s), ref.seen(s))
				}
			}
		}
	}
	rig.h.Close()
	if rig.h.Len() != 0 {
		t.Fatalf("%d packets held after Close", rig.h.Len())
	}
	return len(ref.got)
}

// holdOps draws one destination's steps from next: arrivals a little
// ahead of or behind the sequence owed, with duplicates of held ones,
// occasional jumps up to half the sequence space ahead, and releases
// through a sequence near, behind or far ahead of it.
func holdOps(rng *rand.Rand, next uint32, n int) []holdOp {
	ops := make([]holdOp, 0, n)
	for range n {
		var op holdOp
		switch x := rng.IntN(100); {
		case x < 70:
			op.seq = next + uint32(rng.IntN(28)) - 4
		case x < 75:
			op.seq = next + uint32(rng.IntN(1<<31))
		case x < 77:
			op.seq = next + 1<<31 + uint32(rng.IntN(3)) - 1
		case x < 95:
			op = holdOp{release: true, seq: next + uint32(rng.IntN(30)) - 4}
		default:
			op = holdOp{release: true, seq: next + uint32(rng.IntN(1<<31))}
		}
		ops = append(ops, op)
		// The draws follow the reference loosely: arrivals in sequence
		// move the centre along.
		if !op.release && op.seq == next || op.release && LE(next, op.seq) {
			next = op.seq + 1
		}
	}
	return ops
}

// TestHoldBackMatchesDeliverHeld runs seeded destinations through HoldBack
// and the map-and-sort release rule it replaced, starting from 1 and from
// just below 2^32 so that the sequences cross it: every step accepts,
// delivers, owes, holds and reports seen the same.
func TestHoldBackMatchesDeliverHeld(t *testing.T) {
	delivered := 0
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		for _, start := range []uint32{1, ^uint32(0) - 40} {
			delivered += compareHoldBack(t, start, holdOps(rng, start, 400))
		}
	}
	if delivered < 40*2*100 {
		t.Fatalf("only %d deliveries across the runs", delivered)
	}
}

// FuzzHoldBack runs arbitrary steps through HoldBack and the reference.
// The first four bytes are the sequence owed at the start; each step is
// one op byte and one byte of offset from the sequence owed, signed, with
// the op's bit 2 shifting the offset 24 bits up (a far jump):
//
//	bits 0–1: 0 and 1 an arrival, 2 a release, 3 an arrival at the offset's
//	          bitwise complement (behind the sequence owed)
func FuzzHoldBack(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 3, 0, 2, 0, 1, 2, 9, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xfe, 0, 4, 0, 4, 3, 1, 2, 0x10, 0, 1})
	f.Add([]byte{0, 0, 0, 1, 4, 0x7f, 0, 5, 6, 0x40, 0, 1})
	f.Fuzz(fuzzBody)
}

// fuzzBody is FuzzHoldBack's run of one input.
func fuzzBody(t *testing.T, b []byte) {
	if len(b) < 4 {
		return
	}
	next := binary.BigEndian.Uint32(b)
	b = b[4:]
	if len(b) > 256 {
		b = b[:256]
	}
	ref := newRefHold(next)
	var ops []holdOp
	for i := 0; i+1 < len(b); i += 2 {
		off := uint32(int8(b[i+1]))
		if b[i]&4 != 0 {
			off <<= 24
		}
		op := holdOp{release: b[i]&3 == 2, seq: ref.next + off}
		if b[i]&3 == 3 {
			op.seq = ref.next + ^off
		}
		// The reference tracks the sequence owed, so that offsets stay
		// near it as the run moves along.
		if op.release {
			ref.deliverHeld(op.seq)
		} else {
			ref.arrive(&wire.Packet{FlowSeq: op.seq})
		}
		ops = append(ops, op)
	}
	compareHoldBack(t, next, ops)
}

// TestHoldBackCloseInDelivery closes the buffer from a delivery in the
// middle of a Release, the way a client that closes in its delivery
// callback closes its flows' buffers: the release delivers nothing more,
// nothing is held afterwards, and every captured buffer goes back to the
// pool exactly once (a second Release of one panics).
func TestHoldBackCloseInDelivery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(h *HoldBack, deliver func(*wire.Packet))
		want    uint32
	}{
		// 2 is missing, so Release through 5 passes it over.
		{"passing a gap", func(h *HoldBack, deliver func(*wire.Packet)) { h.Release(5, deliver) }, 3},
		// 2 arrives in sequence and uncovers what is held behind it.
		{"consecutive", func(h *HoldBack, deliver func(*wire.Packet)) {
			h.Arrive(2, seqPacket(2, make([]byte, 4)), func(*wire.Packet) {})
			h.Release(h.Next()-1, deliver)
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHoldBack(2)
			scratch := make([]byte, 4)
			for _, seq := range []uint32{3, 4, 5} {
				h.Arrive(seq, seqPacket(seq, scratch), nil)
			}
			recycled := wire.DefaultBufPool.Stats().Recycled.Load()
			var got []uint32
			tc.release(h, func(p *wire.Packet) {
				got = append(got, p.FlowSeq)
				h.Close()
			})
			if !slices.Equal(got, []uint32{tc.want}) || h.Len() != 0 {
				t.Fatalf("delivered %v with %d held, want [%d] and nothing held", got, h.Len(), tc.want)
			}
			if n := wire.DefaultBufPool.Stats().Recycled.Load() - recycled; n != 3*256 {
				t.Fatalf("%d bytes went back to the pool, want three 256-byte buffers", n)
			}
			h.Release(h.Next()+10, func(*wire.Packet) { t.Fatal("a closed buffer delivered") })
		})
	}
}
