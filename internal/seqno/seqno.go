// Package seqno is sequence-number arithmetic and the gap recovery and
// in-order release built on it, written once for every scope that recovers
// loss: a link receiver (the Reliable Data Link and NM-Strikes, §III-A and
// §IV-A) and a reliable flow's destination (§III-B) — and for the one scope
// that only suppresses copies, a node's duplicate table. It holds the
// serial-number compares, a bitmap window, a growable FIFO, the Queue that
// requests missing sequences on a schedule and gives them up at a
// deadline, and the HoldBack that releases packets in sequence at an
// ordered flow's destination and on a link that forwards in order.
package seqno

// LE reports a <= b in RFC 1982 serial-number arithmetic over the full
// uint32 space: b is "at or after" a when the forward distance from a to b
// is shorter than the wrap distance. Link sessions and flows are
// long-lived, so sequence numbers genuinely pass 2^32; raw comparisons
// would then treat every fresh sequence as ancient.
func LE(a, b uint32) bool { return int32(b-a) >= 0 }

// LT reports a < b in serial-number arithmetic.
func LT(a, b uint32) bool { return int32(b-a) > 0 }

// FIFO is a growable ring-buffer queue. Its slots are reused once it has
// grown, so a steady stream of Push and Pop allocates nothing.
type FIFO[T any] struct {
	buf     []T
	head, n int
}

// Len returns the number of values queued.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Front returns the oldest value of a non-empty queue.
func (q *FIFO[T]) Front() *T { return &q.buf[q.head] }

// Pop removes and returns the oldest value of a non-empty queue.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
