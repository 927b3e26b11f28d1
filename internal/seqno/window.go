package seqno

// Window tracks which sequence numbers have been seen, supporting
// cumulative-plus-bitmap acknowledgment and duplicate suppression. It
// handles the sequences 1,2,3,… of a link, compared in serial-number
// arithmetic so sessions survive the sequence space wrapping past 2^32,
// and, judged by Observe, the sequences of one flow a node sees copies of.
// The window is a ring of bits, so recording and advancing are O(1)
// amortized.
//
// The zero value tracks nothing; use NewWindow.
type Window struct {
	// cum is the highest sequence (serially) such that all sequences at or
	// before it were seen.
	cum uint32
	// bits marks sequences cum+1+i as seen at ring position (start+i) % n,
	// one bit each.
	bits     []uint64
	n, start int
}

// NewWindow returns a window over the capacity sequences after its edge.
func NewWindow(capacity int) *Window {
	return &Window{bits: make([]uint64, (capacity+63)/64), n: capacity}
}

// word returns the word and mask of ring position start+i, for i < n.
func (w *Window) word(i int) (*uint64, uint64) {
	pos := w.start + i
	if pos >= w.n {
		pos -= w.n
	}
	return &w.bits[pos>>6], 1 << (pos & 63)
}

func (w *Window) at(i int) bool {
	word, mask := w.word(i)
	return *word&mask != 0
}

// set marks ring position start+i and reports whether it was clear.
func (w *Window) set(i int) bool {
	word, mask := w.word(i)
	unset := *word&mask == 0
	*word |= mask
	return unset
}

// Seen reports whether seq was recorded or passed.
func (w *Window) Seen(seq uint32) bool {
	if LE(seq, w.cum) {
		return true
	}
	// seq is serially after cum, so the unsigned difference is the true
	// forward distance even across a wrap.
	idx := seq - w.cum - 1
	return idx < uint32(w.n) && w.at(int(idx))
}

// Record marks seq as seen and advances the cumulative edge. It reports
// whether the sequence was newly recorded (false for duplicates and for
// sequences too far ahead of the window, which are dropped).
func (w *Window) Record(seq uint32) bool {
	if LE(seq, w.cum) {
		return false
	}
	idx := seq - w.cum - 1
	if idx >= uint32(w.n) {
		return false
	}
	if !w.set(int(idx)) {
		return false
	}
	for w.at(0) {
		word, mask := w.word(0)
		*word &^= mask
		w.start = (w.start + 1) % w.n
		w.cum++
	}
	return true
}

// Pass gives up every sequence at or before seq: each reads as seen, as
// if it had arrived, and the cumulative edge moves past seq. It records
// one sequence at a time, never more than the window holds: past that,
// nothing in the window is left to keep.
func (w *Window) Pass(seq uint32) {
	if LT(w.cum, seq) && seq-w.cum > uint32(w.n) {
		clear(w.bits)
		w.start, w.cum = 0, seq
	}
	for LT(w.cum, seq) {
		w.Record(w.cum + 1)
	}
}

// Observe judges seq for duplicate suppression and reports whether it is a
// first sighting. The window slides rather than refuse: it covers the
// capacity sequences up to its top, the newest seen. A sequence inside is
// judged by its bit, one past the top moves the top to it, and one a whole
// window or more behind the top reads as a restart of the numbering and
// reopens the window there. A window that has judged nothing opens at seq.
// The top's bit is always set once open, which is how a fresh window is
// told apart. A window that Observe judges is judged by Observe alone.
func (w *Window) Observe(seq uint32) bool {
	open := w.at(w.n - 1)
	if idx := seq - w.cum - 1; open && idx < uint32(w.n) {
		return w.set(int(idx))
	}
	// Distances are serial: d is how far seq lies past the top.
	if d := seq - w.cum - uint32(w.n); open && d < uint32(w.n) {
		for ; d > 0; d-- {
			word, mask := w.word(0)
			*word &^= mask
			w.start = (w.start + 1) % w.n
		}
	} else {
		clear(w.bits)
		w.start = 0
	}
	w.cum = seq - uint32(w.n)
	return w.set(w.n - 1)
}

// Fresh reports what Observe(seq) would answer, and records nothing.
func (w *Window) Fresh(seq uint32) bool {
	idx := seq - w.cum - 1
	return !w.at(w.n-1) || idx >= uint32(w.n) || !w.at(int(idx))
}

// Bytes returns the size of the window's bitmap.
func (w *Window) Bytes() int { return 8 * len(w.bits) }

// Cum returns the cumulative edge: every sequence serially at or before
// Cum has been seen.
func (w *Window) Cum() uint32 { return w.cum }

// AckBits encodes the out-of-order sequences above the cumulative edge as
// the selective-ack bitmap used in FAck frames: bit i is ring position
// start+i, for the first min(n, 64) positions. It reads them by word,
// shifting in the bits after the ring wraps to position 0.
func (w *Window) AckBits() uint64 {
	k := min(w.n, 64)
	if k == 0 {
		return 0
	}
	bits := w.bitsFrom(w.start)
	if m := w.n - w.start; m < k {
		bits = bits&(1<<m-1) | w.bitsFrom(0)<<m
	}
	return bits & (^uint64(0) >> (64 - k))
}

// bitsFrom returns the 64 bits from ring position pos on, in at most two
// word reads and without wrapping: positions past the last word read as
// zero, as do positions n and up within it (nothing sets them).
func (w *Window) bitsFrom(pos int) uint64 {
	i, off := pos>>6, uint(pos&63)
	v := w.bits[i] >> off
	if off != 0 && i+1 < len(w.bits) {
		v |= w.bits[i+1] << (64 - off)
	}
	return v
}
