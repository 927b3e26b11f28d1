package sim

import (
	"container/heap"
	"time"
)

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
	// disarm removes ev from the queue, reporting whether it was there.
	disarm(ev *event) bool
}

var _ Timer = (*event)(nil)

// Reset implements Timer.
func (e *event) Reset(d time.Duration) { e.q.arm(e, d) }

// Stop implements Timer.
func (e *event) Stop() bool { return e.q.disarm(e) }

// eventHeap is a min-heap of events by time, ties broken by scheduling
// order. Every event knows its index, so one can be moved or removed
// without a search and without leaving a tombstone behind.
type eventHeap []*event

// schedule queues ev under (at, seq), or moves it there if it is queued.
func (h *eventHeap) schedule(ev *event, at time.Duration, seq uint64) {
	ev.at, ev.seq = at, seq
	if ev.pos > 0 {
		heap.Fix(h, ev.pos-1)
		return
	}
	heap.Push(h, ev)
}

// remove takes ev out of the heap; it reports false if ev was not queued.
func (h *eventHeap) remove(ev *event) bool {
	if ev.pos == 0 {
		return false
	}
	heap.Remove(h, ev.pos-1)
	return true
}

// pop removes and returns the earliest event of a non-empty heap.
func (h *eventHeap) pop() *event {
	return heap.Pop(h).(*event)
}

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].pos = i + 1
	h[j].pos = j + 1
}

func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	*h = append(*h, ev)
	ev.pos = len(*h)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	ev.pos = 0
	return ev
}
