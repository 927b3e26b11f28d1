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
// The slots are allocated by the first Put, so an endpoint that never
// sends holds nothing.
type SeqRing[T any] struct {
	n     int
	live  int
	slots []seqSlot[T]
	evict func(seq uint32, v T)
}

type seqSlot[T any] struct {
	seq  uint32
	full bool
	v    T
}

// NewSeqRing returns a ring over the last n sequences. evict, when not
// nil, receives every value the ring lets go of — displaced by Put or
// dropped by Clear — which is where a value that owns a pooled buffer
// releases it.
func NewSeqRing[T any](n int, evict func(seq uint32, v T)) *SeqRing[T] {
	if n < 1 {
		n = 1
	}
	return &SeqRing[T]{n: n, evict: evict}
}

// Put stores v under seq, evicting the slot's previous occupant.
func (r *SeqRing[T]) Put(seq uint32, v T) {
	if r.slots == nil {
		r.slots = make([]seqSlot[T], r.n)
	}
	s := &r.slots[seq%uint32(r.n)]
	if s.full {
		r.drop(s)
	}
	*s = seqSlot[T]{seq: seq, full: true, v: v}
	r.live++
}

// Get returns the value stored under seq, if the ring still holds it.
func (r *SeqRing[T]) Get(seq uint32) (v T, ok bool) {
	if r.slots == nil {
		return v, false
	}
	s := &r.slots[seq%uint32(r.n)]
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
