package sim

import "time"

// event is the one timer record behind both clocks: a callback, the
// deadline and scheduling-order number it is queued under, and its place
// in the owning clock's heap. It doubles as the Timer handle, so arming
// and re-arming move a record that already exists instead of allocating
// one.
type event struct {
	at     time.Duration
	seq    uint64
	fn     func()
	runner Runner
	// q is the clock that queues this event; nil on Scheduler.AfterRunner
	// events, which have no handle to Reset or Stop them through.
	q timerQueue
	// pos is the heap index plus one; zero means not queued (idle,
	// stopped, or fired).
	pos int
}

// timerQueue is what an event needs from the clock that owns it.
type timerQueue interface {
	// arm queues ev to fire d from now, moving it if already queued.
	arm(ev *event, d time.Duration)
	// armAt queues ev to fire at clock time at, moving it if already
	// queued.
	armAt(ev *event, at time.Duration)
	// disarm removes ev from the queue, reporting whether it was there.
	disarm(ev *event) bool
}

var _ Timer = (*event)(nil)

// Reset implements Timer.
func (e *event) Reset(d time.Duration) { e.q.arm(e, d) }

// ResetAt implements Timer.
func (e *event) ResetAt(at time.Duration) { e.q.armAt(e, at) }

// Stop implements Timer.
func (e *event) Stop() bool { return e.q.disarm(e) }

// before orders events by deadline, ties broken by scheduling order. seq
// is unique per clock, so this is a total order: whatever shape the heap
// has, it pops the same sequence.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventHeap is a binary min-heap of events in before order. Every event
// knows its index, so one can be moved or removed without a search and
// without leaving a tombstone behind. The sifts are written out for
// *event: a generic heap would make an interface call per comparison and
// per swap, on every event a world runs.
type eventHeap []*event

// schedule queues ev under (at, seq), or moves it there if it is queued.
func (h *eventHeap) schedule(ev *event, at time.Duration, seq uint64) {
	ev.at, ev.seq = at, seq
	if ev.pos > 0 {
		h.fix(ev.pos - 1)
		return
	}
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// remove takes ev out of the heap; it reports false if ev was not queued.
func (h *eventHeap) remove(ev *event) bool {
	if ev.pos == 0 {
		return false
	}
	h.removeAt(ev.pos - 1)
	return true
}

// pop removes and returns the earliest event of a non-empty heap.
func (h *eventHeap) pop() *event { return h.removeAt(0) }

// removeAt takes out the event at index i: the last event fills the hole
// and sifts to its place.
func (h *eventHeap) removeAt(i int) *event {
	q := *h
	last := len(q) - 1
	ev := q[i]
	q[i] = q[last]
	q[last] = nil
	*h = q[:last]
	if i < last {
		h.fix(i)
	}
	ev.pos = 0
	return ev
}

// fix restores heap order after the event at index i got a new key.
func (h eventHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

// up sifts the event at index i toward the root, moving each later
// parent down into the hole rather than swapping.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		parent := h[p]
		if !ev.before(parent) {
			break
		}
		h[i] = parent
		parent.pos = i + 1
		i = p
	}
	h[i] = ev
	ev.pos = i + 1
}

// down sifts the event at index i0 toward the leaves and reports whether
// it moved.
func (h eventHeap) down(i0 int) bool {
	ev := h[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		child := h[c]
		if r := c + 1; r < len(h) && h[r].before(child) {
			c, child = r, h[r]
		}
		if !child.before(ev) {
			break
		}
		h[i] = child
		child.pos = i + 1
		i = c
	}
	h[i] = ev
	ev.pos = i + 1
	return i > i0
}
