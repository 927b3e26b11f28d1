package link

// SeqRing keeps the values stored under the last N sequence numbers: the
// bounded send history NM-Strikes answers requests from, and the one a
// reliable session flow answers NACKs from. Sequence seq lives at index
// seq % N, each slot remembers which sequence it holds, and storing seq
// displaces whatever the slot held — seq − N when sequences are stored in
// order — so there is no separate eviction order to keep. A lookup checks
// the slot's sequence, which makes a stale or skipped sequence a miss and
// keeps lookups exact across the 2^32 wrap (where, unless N is a power of
// two, the index jumps once and one store may displace a younger entry).
//
// The ring is sized by what its owner still wants, not by N: the first Put
// allocates min(N, seqRingFloor) slots, indexed by seq % N folded onto the
// slots there are, and the slots double — up to N — only when a Put would
// displace a value keep still wants. Two sequences that share a slot of N
// share one at every smaller size, so a ring whose owner wants everything
// holds exactly what a ring of N slots would; and two live sequences in
// different slots stay apart when the slots double, so growing moves
// values and never drops one. An endpoint that never sends holds nothing.
type SeqRing[T any] struct {
	n     int
	live  int
	slots []seqSlot[T]
	keep  func(held, put T) bool
	evict func(seq uint32, v T)
}

type seqSlot[T any] struct {
	seq  uint32
	full bool
	v    T
}

// seqRingFloor is the size a ring starts at. A smaller one saves nothing
// worth having (256 pointers) and changes what a slow link answers: at 64,
// a single-strike request for a packet 65 sends old misses where the fixed
// ring hit, which moves EXP-RTRM's pinned result.
const seqRingFloor = 256

// NewSeqRing returns a ring over the last n sequences. keep, when not nil,
// reports whether the owner still wants the value held where put is about
// to go; the ring grows rather than displace one it does, and nil wants
// every value until the ring has n slots. evict, when not nil, receives every value the ring
// lets go of — displaced by Put or dropped by Clear — which is where a
// value that owns a pooled buffer releases it.
func NewSeqRing[T any](n int, keep func(held, put T) bool, evict func(seq uint32, v T)) *SeqRing[T] {
	if n < 1 {
		n = 1
	}
	return &SeqRing[T]{n: n, keep: keep, evict: evict}
}

// slot returns the slot seq lives in at the ring's current size.
func (r *SeqRing[T]) slot(seq uint32) *seqSlot[T] {
	return &r.slots[seq%uint32(r.n)%uint32(len(r.slots))]
}

// Put stores v under seq, evicting the slot's previous occupant — or, if
// the owner still wants that one and the ring can grow, moving it aside.
func (r *SeqRing[T]) Put(seq uint32, v T) {
	if r.slots == nil {
		r.slots = make([]seqSlot[T], min(r.n, seqRingFloor))
	}
	s := r.slot(seq)
	for s.full && s.seq != seq && len(r.slots) < r.n && (r.keep == nil || r.keep(s.v, v)) {
		r.grow()
		s = r.slot(seq)
	}
	if s.full {
		r.drop(s)
	}
	*s = seqSlot[T]{seq: seq, full: true, v: v}
	r.live++
}

// grow doubles the slots, up to n, and moves every value to its new one.
func (r *SeqRing[T]) grow() {
	old := r.slots
	r.slots = make([]seqSlot[T], min(2*len(old), r.n))
	for i := range old {
		if old[i].full {
			*r.slot(old[i].seq) = old[i]
		}
	}
}

// Get returns the value stored under seq, if the ring still holds it.
func (r *SeqRing[T]) Get(seq uint32) (v T, ok bool) {
	if r.slots == nil {
		return v, false
	}
	s := r.slot(seq)
	if !s.full || s.seq != seq {
		return v, false
	}
	return s.v, true
}

// Len returns the number of values held.
func (r *SeqRing[T]) Len() int { return r.live }

// Clear evicts every value and frees the slots.
func (r *SeqRing[T]) Clear() {
	for i := range r.slots {
		if r.slots[i].full {
			r.drop(&r.slots[i])
		}
	}
	r.slots = nil
}

func (r *SeqRing[T]) drop(s *seqSlot[T]) {
	seq, v := s.seq, s.v
	*s = seqSlot[T]{}
	r.live--
	if r.evict != nil {
		r.evict(seq, v)
	}
}
