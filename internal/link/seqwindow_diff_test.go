package link

import (
	"math/rand"
	"slices"
	"testing"
)

// boolWindow is the seqWindow this package had before the bitmap: one
// []bool entry per sequence. It stays here as the reference the bitmap is
// held to, call for call.
type boolWindow struct {
	cum   uint32
	bits  []bool
	start int
}

func (w *boolWindow) at(i int) bool { return w.bits[(w.start+i)%len(w.bits)] }

func (w *boolWindow) Seen(seq uint32) bool {
	if seqLE(seq, w.cum) {
		return true
	}
	idx := seq - w.cum - 1
	return idx < uint32(len(w.bits)) && w.at(int(idx))
}

func (w *boolWindow) Record(seq uint32) bool {
	if seqLE(seq, w.cum) {
		return false
	}
	idx := seq - w.cum - 1
	if idx >= uint32(len(w.bits)) {
		return false
	}
	pos := (w.start + int(idx)) % len(w.bits)
	if w.bits[pos] {
		return false
	}
	w.bits[pos] = true
	for w.bits[w.start] {
		w.bits[w.start] = false
		w.start = (w.start + 1) % len(w.bits)
		w.cum++
	}
	return true
}

func (w *boolWindow) AckBits() uint64 {
	var bits uint64
	for i := 0; i < min(len(w.bits), 64); i++ {
		if w.at(i) {
			bits |= 1 << i
		}
	}
	return bits
}

func (w *boolWindow) Missing(upTo uint32, max int) []uint32 {
	if seqLE(upTo, w.cum) {
		return nil
	}
	span := min(upTo-w.cum, uint32(len(w.bits)))
	var out []uint32
	for i := uint32(1); i <= span && len(out) < max; i++ {
		if seq := w.cum + i; !w.Seen(seq) {
			out = append(out, seq)
		}
	}
	return out
}

// TestSeqWindowBitmapMatchesBoolWindow drives the bitmap window and the
// []bool one it replaced with the same calls — in-window arrivals in random
// order, duplicates, stale and far-ahead sequences — from bases that put
// the run on either side of 2^32 and of the int32 sign boundary, at
// capacities that do and do not fill their last word, and holds every
// Record, Seen, Cum, AckBits and Missing answer equal.
func TestSeqWindowBitmapMatchesBoolWindow(t *testing.T) {
	bases := []uint32{0, 0x7fffffff - 20, 0xffffff00, 0xffffffff - 15, 0xffffffff - 2000}
	for _, capacity := range []int{8, 32, 64, 100, 1024, 1 << 16} {
		for _, base := range bases {
			r := rand.New(rand.NewSource(int64(base) + int64(capacity)))
			w, ref := newSeqWindow(capacity), &boolWindow{bits: make([]bool, capacity)}
			w.cum, ref.cum = base, base
			if w.Bytes() != 8*((capacity+63)/64) {
				t.Fatalf("capacity %d takes %d bytes", capacity, w.Bytes())
			}
			reach := min(capacity+8, 300)
			for i := 0; i < 4000; i++ {
				seq := ref.cum + 1 + uint32(r.Intn(reach))
				switch r.Intn(8) {
				case 0:
					seq = ref.cum - uint32(r.Intn(50)) // stale
				case 1:
					seq = ref.cum + 1 // fills the edge, slides the window
				case 2:
					seq = ref.cum + uint32(capacity) + uint32(r.Intn(3)) // the far edge and just past it
				}
				if got, want := w.Record(seq), ref.Record(seq); got != want {
					t.Fatalf("cap %d base %#x: Record(%#x) = %v, the []bool window says %v", capacity, base, seq, got, want)
				}
				probe := ref.cum + uint32(r.Intn(reach+4)) - 2
				if w.Cum() != ref.cum || w.Seen(seq) != ref.Seen(seq) || w.Seen(probe) != ref.Seen(probe) {
					t.Fatalf("cap %d base %#x: after Record(%#x) Cum %#x/%#x, Seen(%#x) %v/%v", capacity, base, seq,
						w.Cum(), ref.cum, probe, w.Seen(probe), ref.Seen(probe))
				}
				if w.AckBits() != ref.AckBits() {
					t.Fatalf("cap %d base %#x: AckBits %#x, the []bool window says %#x", capacity, base, w.AckBits(), ref.AckBits())
				}
				if i%16 == 0 {
					upTo := ref.cum + uint32(r.Intn(2*reach))
					if got, want := w.Missing(upTo, 40, nil), ref.Missing(upTo, 40); !slices.Equal(got, want) {
						t.Fatalf("cap %d base %#x: Missing(%#x) = %v, the []bool window says %v", capacity, base, upTo, got, want)
					}
				}
			}
		}
	}
}
