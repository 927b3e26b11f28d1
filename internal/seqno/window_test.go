package seqno

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSeqWindowBasic(t *testing.T) {
	w := NewWindow(64)
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
	if w.Seen(3) || !w.Seen(4) {
		t.Fatalf("Seen(3), Seen(4) = %v, %v; want false, true", w.Seen(3), w.Seen(4))
	}
	if !w.Record(3) {
		t.Fatal("Record(3) = false")
	}
	if w.Cum() != 4 {
		t.Fatalf("Cum = %d, want 4", w.Cum())
	}
}

func TestSeqWindowFarAheadDropped(t *testing.T) {
	w := NewWindow(8)
	if w.Record(100) {
		t.Fatal("Record far beyond window = true")
	}
}

// TestSeqWindowMatchesReference compares the ring implementation against a
// map-based reference over random in-window insertion orders.
func TestSeqWindowMatchesReference(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := NewWindow(32)
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

// TestSeqWindowWraparound drives the window across the 2^32 sequence
// boundary: a long-lived link session genuinely gets there, and before the
// switch to serial-number arithmetic every post-wrap frame compared as
// "ancient", permanently black-holing the link.
func TestSeqWindowWraparound(t *testing.T) {
	w := NewWindow(64)
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
	w2 := NewWindow(64)
	w2.cum = 0xfffffffe
	if !w2.Record(1) { // leaves 0xffffffff and 0 missing
		t.Fatal("Record(1) across wrap = false")
	}
	if w2.Cum() != 0xfffffffe {
		t.Fatalf("Cum = %#x, want unchanged before gap fill", w2.Cum())
	}
	if w2.Seen(0xffffffff) || w2.Seen(0) || !w2.Seen(1) {
		t.Fatal("the gap straddling the wrap reads as seen")
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
		w := NewWindow(32)
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

// boolWindow is the window the link package had before the bitmap: one
// []bool entry per sequence, and a give-up that walks one sequence at a
// time. It stays here as the reference the bitmap is held to, call for
// call.
type boolWindow struct {
	cum   uint32
	bits  []bool
	start int
}

func (w *boolWindow) at(i int) bool { return w.bits[(w.start+i)%len(w.bits)] }

func (w *boolWindow) Seen(seq uint32) bool {
	if LE(seq, w.cum) {
		return true
	}
	idx := seq - w.cum - 1
	return idx < uint32(len(w.bits)) && w.at(int(idx))
}

func (w *boolWindow) Record(seq uint32) bool {
	if LE(seq, w.cum) {
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
	w.slide()
	return true
}

func (w *boolWindow) Pass(seq uint32) {
	for LT(w.cum, seq) {
		w.bits[w.start] = false
		w.start = (w.start + 1) % len(w.bits)
		w.cum++
	}
	w.slide()
}

func (w *boolWindow) slide() {
	for w.bits[w.start] {
		w.bits[w.start] = false
		w.start = (w.start + 1) % len(w.bits)
		w.cum++
	}
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

// TestSeqWindowBitmapMatchesBoolWindow drives the bitmap window and the
// []bool one it replaced with the same calls — in-window arrivals in random
// order, duplicates, stale and far-ahead sequences, give-ups short and
// longer than the window — from bases that put the run on either side of
// 2^32 and of the int32 sign boundary, at capacities that do and do not
// fill their last word, and holds every Record, Seen, Cum and AckBits
// answer equal.
func TestSeqWindowBitmapMatchesBoolWindow(t *testing.T) {
	bases := []uint32{0, 0x7fffffff - 20, 0xffffff00, 0xffffffff - 15, 0xffffffff - 2000}
	for _, capacity := range []int{8, 32, 64, 100, 1024, 1 << 16} {
		for _, base := range bases {
			r := rand.New(rand.NewSource(int64(base) + int64(capacity)))
			w, ref := NewWindow(capacity), &boolWindow{bits: make([]bool, capacity)}
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
				if i%32 == 0 {
					// A give-up, sometimes as long as the window or longer.
					pass := seq - uint32(r.Intn(2))
					if i%256 == 0 {
						pass = ref.cum + uint32(capacity) - 1 + uint32(r.Intn(3))
					}
					w.Pass(pass)
					ref.Pass(pass)
				} else if got, want := w.Record(seq), ref.Record(seq); got != want {
					t.Fatalf("cap %d base %#x: Record(%#x) = %v, the []bool window says %v", capacity, base, seq, got, want)
				}
				probe := ref.cum + uint32(r.Intn(reach+4)) - 2
				if w.Cum() != ref.cum || w.Seen(seq) != ref.Seen(seq) || w.Seen(probe) != ref.Seen(probe) {
					t.Fatalf("cap %d base %#x: after step %d at %#x Cum %#x/%#x, Seen(%#x) %v/%v", capacity, base, i, seq,
						w.Cum(), ref.cum, probe, w.Seen(probe), ref.Seen(probe))
				}
				if w.AckBits() != ref.AckBits() {
					t.Fatalf("cap %d base %#x: AckBits %#x, the []bool window says %#x", capacity, base, w.AckBits(), ref.AckBits())
				}
			}
		}
	}
}

// slideRef is the rule Observe implements, written out on a set: a fresh
// window opens at the first sequence; one serially past the top becomes
// the top; one less than a window behind is a copy iff seen; anything else
// restarts the window there.
type slideRef struct {
	n    uint32
	open bool
	top  uint32
	seen map[uint32]bool
}

func (r *slideRef) observe(seq uint32) bool {
	switch {
	case r.open && LT(r.top, seq):
		r.top = seq
		for s := range r.seen {
			if r.top-s >= r.n {
				delete(r.seen, s)
			}
		}
	case r.open && r.top-seq < r.n:
		first := !r.seen[seq]
		r.seen[seq] = true
		return first
	default:
		r.open, r.top, r.seen = true, seq, map[uint32]bool{}
	}
	r.seen[seq] = true
	return true
}

// TestWindowObserveMatchesRule drives Observe and the rule on a set with
// copies inside the window, sequences just past its top and just past its
// far edge, long jumps either way and half the space away, from bases on
// either side of 2^32 and of the int32 sign boundary, at capacities that do
// and do not fill their last word, and holds every verdict equal. Each run
// starts from a fresh window, so how one opens is checked hundreds of times.
// Fresh, asked first, must give the same verdict without recording it.
func TestWindowObserveMatchesRule(t *testing.T) {
	for _, capacity := range []int{1, 8, 64, 100} {
		for _, base := range []uint32{0, 0x7fffffff - 20, 0xffffffff - 15} {
			r := rand.New(rand.NewSource(int64(base) + int64(capacity)))
			for run := 0; run < 200; run++ {
				w, ref := NewWindow(capacity), &slideRef{n: uint32(capacity)}
				top := base + uint32(r.Intn(2*capacity)) - uint32(capacity)
				for i := 0; i < 100; i++ {
					seq := top - uint32(r.Intn(capacity+3)) + 3
					switch r.Intn(16) {
					case 0:
						seq = top + uint32(capacity) + uint32(r.Intn(3)) - 1
					case 1:
						seq = top - uint32(capacity) + uint32(r.Intn(3)) - 1
					case 2:
						seq = top + 1<<31 + uint32(r.Intn(5)) - 2
					case 3:
						seq = top + uint32(r.Int31())
					}
					fresh, want := w.Fresh(seq), ref.observe(seq)
					if fresh != want {
						t.Fatalf("cap %d base %#x run %d step %d: Fresh(%#x) = %v, the rule says %v", capacity, base, run, i, seq, fresh, want)
					}
					if got := w.Observe(seq); got != want {
						t.Fatalf("cap %d base %#x run %d step %d: Observe(%#x) = %v with top %#x, the rule says %v", capacity, base, run, i, seq, got, ref.top, want)
					}
					top = ref.top
				}
			}
		}
	}
}

// TestAckBitsMatchesPerBit holds the by-word AckBits equal to the per-bit
// probe of the first 64 ring positions it replaced, on random bitmaps at
// every kind of start: word-aligned, mid-word, and close enough to the
// end of the ring that the 64 bits wrap to position 0.
func TestAckBitsMatchesPerBit(t *testing.T) {
	perBit := func(w *Window) uint64 {
		var bits uint64
		for i := 0; i < min(w.n, 64); i++ {
			if w.at(i) {
				bits |= 1 << i
			}
		}
		return bits
	}
	r := rand.New(rand.NewSource(45))
	for _, n := range []int{1, 10, 64, 100, 128, 1 << 16} {
		w := NewWindow(n)
		starts := []int{0, n - 1, max(n-63, 0), max(n-64, 0), n / 2}
		for i := 0; i < 200; i++ {
			starts = append(starts, r.Intn(n))
		}
		for _, start := range starts {
			clear(w.bits)
			for pos := 0; pos < n; pos++ {
				if r.Intn(3) == 0 {
					w.bits[pos>>6] |= 1 << (pos & 63)
				}
			}
			w.start = start
			if got, want := w.AckBits(), perBit(w); got != want {
				t.Fatalf("n %d start %d: AckBits %#x, per bit %#x", n, start, got, want)
			}
		}
	}
	if got := (&Window{}).AckBits(); got != 0 {
		t.Fatalf("zero window AckBits %#x, want 0", got)
	}
}
