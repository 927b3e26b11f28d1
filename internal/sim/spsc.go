package sim

import "sync/atomic"

// SPSC is a bounded single-producer single-consumer ring, the queue inside
// every Handoff: the producer owns tail, the consumer owns head, and each
// side only ever stores its own index, so neither takes a lock. Go's
// sync/atomic gives the release/acquire ordering that makes the element
// visible before the index advance.
//
// Exactly one goroutine may call Push and exactly one may call Pop; the
// consumer may change over time (e.g. a drain runner migrating between
// event-loop turns) as long as consumers never overlap.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	// head is the next slot to pop; only the consumer stores it.
	head atomic.Uint64
	_    [56]byte // keep the indices off one another's cache line
	// tail is the next slot to push; only the producer stores it.
	tail atomic.Uint64
}

// NewSPSC returns a ring holding at least capacity elements (rounded up
// to a power of two, minimum 2).
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := 2
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Cap returns the ring's capacity.
func (r *SPSC[T]) Cap() int { return len(r.buf) }

// Len returns the number of queued elements. It is exact for the
// producer and the consumer and approximate for anyone else.
func (r *SPSC[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }

// Empty reports whether the ring has no queued elements.
func (r *SPSC[T]) Empty() bool { return r.tail.Load() == r.head.Load() }

// Push appends v, reporting false when the ring is full (the caller
// decides whether full means drop, count, or back off).
func (r *SPSC[T]) Push(v T) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	return true
}

// Pop removes and returns the oldest element. The vacated slot is zeroed
// so popped elements do not pin referenced memory.
func (r *SPSC[T]) Pop() (T, bool) {
	var zero T
	h := r.head.Load()
	if h == r.tail.Load() {
		return zero, false
	}
	v := r.buf[h&r.mask]
	r.buf[h&r.mask] = zero
	r.head.Store(h + 1)
	return v, true
}

// Handoff carries work from one goroutine to one event loop: an SPSC ring,
// a doorbell, and the drain the doorbell posts. Every cross-loop hand-off a
// sharded daemon makes is one — UDP reader to shard, and shard to shard.
//
// The producer pushes (the embedded SPSC's Push) and then rings. Only the
// ring that finds the doorbell clear posts the drain, so a lone element
// leaves at once, a burst crosses with one post, and the steady state
// allocates nothing. On the target loop the drain hands up to quota
// elements to run and re-posts itself while any remain, so a saturating
// producer cannot starve the timers and other work sharing that loop.
//
// One drain of at most quota elements is a turn. A consumer that answers
// a batch more cheaply than its elements one by one (a link acking every
// frame of the turn with one ack) sets OnTurnEnd and answers there.
type Handoff[T any] struct {
	*SPSC[T]
	bell  atomic.Bool
	exec  Executor
	quota int
	run   func(*T)
	// end, when set, runs after every turn's elements.
	end func()
	// cur holds the element being run. It lives here rather than on the
	// drain's stack so run may keep its address for the call (a link
	// protocol takes a packet's) without an allocation.
	cur T
}

// NewHandoff returns a hand-off queueing at least capacity elements whose
// drain runs on exec, passing at most quota elements to run per turn.
func NewHandoff[T any](capacity, quota int, exec Executor, run func(*T)) *Handoff[T] {
	return &Handoff[T]{SPSC: NewSPSC[T](capacity), exec: exec, quota: quota, run: run}
}

// OnTurnEnd sets fn to run on the target loop at the end of every turn,
// after the turn's last element ran (and after a turn that found the ring
// empty). Set it before the first Ring.
func (h *Handoff[T]) OnTurnEnd(fn func()) { h.end = fn }

// Ring posts the drain unless one is already queued or running.
func (h *Handoff[T]) Ring() {
	if h.bell.CompareAndSwap(false, true) {
		PostRunner(h.exec, h)
	}
}

// Run implements Runner: one drain turn on the target loop.
func (h *Handoff[T]) Run() {
	h.bell.Store(false)
	h.drain()
	if !h.Empty() {
		h.Ring()
	}
}

// Drain runs every queued element on the calling goroutine, which must be
// the target loop's. A close path calls it once the producer has stopped,
// so that nothing the ring holds is left behind.
func (h *Handoff[T]) Drain() {
	for !h.Empty() {
		h.drain()
	}
}

// drain runs one turn: up to quota queued elements, then the turn's end.
func (h *Handoff[T]) drain() {
	for i := 0; i < h.quota; i++ {
		var ok bool
		if h.cur, ok = h.Pop(); !ok {
			break
		}
		h.run(&h.cur)
	}
	var zero T
	h.cur = zero
	if h.end != nil {
		h.end()
	}
}
