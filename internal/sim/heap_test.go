package sim

import (
	"container/heap"
	"math/rand/v2"
	"testing"
	"time"
)

// refEvent is one entry of the reference queue.
type refEvent struct {
	at  time.Duration
	seq uint64
	id  int
	idx int // heap index; -1 when not queued
}

// refHeap is the (at, seq) min-heap built on container/heap: the
// reference the scheduler's own sifts are checked against.
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	e.idx = -1
	return e
}

// refQueue is a virtual clock over refHeap, drawing seq at every arming
// as Scheduler does.
type refQueue struct {
	now time.Duration
	seq uint64
	h   refHeap
}

func (q *refQueue) arm(e *refEvent, at time.Duration) {
	e.at, e.seq = max(at, q.now), q.seq
	q.seq++
	if e.idx >= 0 {
		heap.Fix(&q.h, e.idx)
		return
	}
	heap.Push(&q.h, e)
}

func (q *refQueue) stop(e *refEvent) bool {
	if e.idx < 0 {
		return false
	}
	heap.Remove(&q.h, e.idx)
	return true
}

func (q *refQueue) step() (firing traceEntry, ok bool) {
	if len(q.h) == 0 {
		return firing, false
	}
	e := heap.Pop(&q.h).(*refEvent)
	q.now = e.at
	return traceEntry{e.id, e.at}, true
}

// checkHeap asserts the typed heap's invariants: every queued event's pos
// names its slot, and no event sorts before its parent.
func checkHeap(t *testing.T, h eventHeap) {
	t.Helper()
	for i, ev := range h {
		if ev.pos != i+1 {
			t.Fatalf("event in slot %d has pos %d", i, ev.pos)
		}
		if i > 0 && ev.before(h[(i-1)/2]) {
			t.Fatalf("event in slot %d sorts before its parent", i)
		}
	}
}

// TestSchedulerHeapMatchesContainerHeap runs seeded sequences of At,
// AfterRunner, Reset, Stop and Step through the scheduler and through the
// container/heap reference above. Delays come from four values, so most
// firings tie with another at their instant, and Reset often moves a timer
// that is already queued. Both must fire the same events at the same
// instants in the same order, and Stop must answer the same.
func TestSchedulerHeapMatchesContainerHeap(t *testing.T) {
	const timers, ops = 16, 3000
	for seed := uint64(1); seed <= 30; seed++ {
		s := NewScheduler(seed)
		q := &refQueue{}
		rng := rand.New(rand.NewPCG(seed, 7))
		delay := func() time.Duration { return time.Duration(rng.IntN(4)) * time.Millisecond }
		var trace []traceEntry
		handles := make([]*event, timers)
		refs := make([]*refEvent, timers)
		for i := range handles {
			i := i
			handles[i] = s.NewTimer(func() { trace = append(trace, traceEntry{i, s.Now()}) }).(*event)
			refs[i] = &refEvent{id: i, idx: -1}
		}
		steps := 0
		for op := 0; op < ops; op++ {
			i, d := rng.IntN(timers), delay()
			switch rng.IntN(6) {
			case 0:
				// An absolute time up to 2 ms in the past clamps to now.
				at, id := s.Now()+d-2*time.Millisecond, timers+op
				s.At(at, func() { trace = append(trace, traceEntry{id, s.Now()}) })
				q.arm(&refEvent{id: id, idx: -1}, at)
			case 1:
				s.AfterRunner(d, &traceRunner{trace: &trace, s: s, id: timers + op})
				q.arm(&refEvent{id: timers + op, idx: -1}, q.now+d)
			case 2:
				handles[i].Reset(d)
				q.arm(refs[i], q.now+d)
			case 3:
				if got, want := handles[i].Stop(), q.stop(refs[i]); got != want {
					t.Fatalf("seed %d op %d: Stop = %v, reference %v", seed, op, got, want)
				}
			default:
				want, ok := q.step()
				if s.Step() != ok {
					t.Fatalf("seed %d op %d: Step ran an event = %v, reference %v", seed, op, !ok, ok)
				}
				if ok {
					steps++
					if got := trace[len(trace)-1]; len(trace) != steps || got != want {
						t.Fatalf("seed %d op %d: fired %+v (firing %d), reference %+v", seed, op, got, len(trace), want)
					}
				}
			}
			checkHeap(t, s.events)
			if s.Pending() != len(q.h) {
				t.Fatalf("seed %d op %d: %d pending, reference %d", seed, op, s.Pending(), len(q.h))
			}
			for i := range handles {
				if queued := handles[i].pos > 0; queued != (refs[i].idx >= 0) {
					t.Fatalf("seed %d op %d: timer %d queued = %v, reference %v", seed, op, i, queued, !queued)
				}
			}
		}
		if steps < ops/4 {
			t.Fatalf("seed %d: only %d firings compared", seed, steps)
		}
	}
}
