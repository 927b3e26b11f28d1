package link

import (
	"math"
	"time"

	"sonet/internal/sim"
)

// fifo is a growable ring-buffer queue. Its slots are reused once it has
// grown, so a steady stream of push and pop allocates nothing.
type fifo[T any] struct {
	buf     []T
	head, n int
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) {
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

// front returns the oldest value of a non-empty queue.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

// pop removes and returns the oldest value of a non-empty queue.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// gapOwner is the link protocol a gapQueue recovers sequences for.
type gapOwner interface {
	// request transmits one retransmission request for seq; left is the
	// time until the receiver gives seq up.
	request(seq uint32, left time.Duration)
	// gaveUp runs after seq was given up and recorded as seen.
	gaveUp(seq uint32)
}

// gap is one missing sequence in one of the FIFOs: the requests it has
// had, and when its next request, or its give-up, is due.
type gap struct {
	seq  uint32
	sent int
	due  time.Duration
}

// gapQueue is a link receiver's recovery schedule. A sequence found
// missing is requested at once, again every step until it has had tries
// requests, and given up life after it was found: recorded in the receive
// window as if it had arrived, which moves the cumulative edge past it.
//
// Every gap runs the same offsets from its discovery, so one timer serves
// them all. reqs, where a gap goes back to the tail after each request, is
// in due order; lives, one entry per gap, is in discovery order and so in
// give-up order; the timer is armed for the earlier of the two heads. A
// gap that arrives needs no cancelling: it reads as seen when it reaches a
// head and is dropped there.
type gapQueue struct {
	clock sim.Clock
	timer sim.Timer
	win   *seqWindow
	owner gapOwner

	step  time.Duration
	tries int
	life  time.Duration

	reqs, lives fifo[gap]
	// last is the highest sequence ever queued: a missing sequence was
	// queued iff it is at or below last.
	last uint32
	// at is the deadline the timer is armed for, while armed.
	at    time.Duration
	armed bool
}

func newGapQueue(clock sim.Clock, win *seqWindow, owner gapOwner, step time.Duration, tries int, life time.Duration) *gapQueue {
	q := &gapQueue{clock: clock, win: win, owner: owner, step: step, tries: tries, life: life}
	q.timer = clock.NewTimer(q.fire)
	return q
}

// add puts seq on the schedule, unless it is seen or already queued, and
// sends its first request.
func (q *gapQueue) add(seq uint32) {
	if seqLT(q.last, q.win.Cum()) {
		q.last = q.win.Cum()
	}
	if !seqLT(q.last, seq) || q.win.Seen(seq) {
		return
	}
	q.last = seq
	now := q.clock.Now()
	q.lives.push(gap{seq: seq, due: now + q.life})
	if q.tries > 1 {
		q.reqs.push(gap{seq: seq, sent: 1, due: now + q.step})
	}
	q.arm()
	q.owner.request(seq, q.life)
}

// arm makes sure the timer fires by the earlier head's deadline.
func (q *gapQueue) arm() {
	if q.reqs.len()+q.lives.len() == 0 {
		return
	}
	at := time.Duration(math.MaxInt64)
	if q.reqs.len() > 0 {
		at = q.reqs.front().due
	}
	if q.lives.len() > 0 {
		at = min(at, q.lives.front().due)
	}
	if q.armed && q.at <= at {
		return
	}
	q.at, q.armed = at, true
	q.timer.Reset(at - q.clock.Now())
}

// fire gives up every gap whose life is over, then sends every request
// that is due, and re-arms for what is left.
func (q *gapQueue) fire() {
	q.armed = false
	now := q.clock.Now()
	for q.lives.len() > 0 && q.lives.front().due <= now {
		g := q.lives.pop()
		if q.win.Record(g.seq) {
			q.owner.gaveUp(g.seq)
		}
	}
	for q.reqs.len() > 0 && q.reqs.front().due <= now {
		g := q.reqs.pop()
		if q.win.Seen(g.seq) {
			continue
		}
		left := q.life - time.Duration(g.sent)*q.step
		g.sent++
		if g.sent < q.tries {
			g.due = now + q.step
			q.reqs.push(g)
		}
		q.owner.request(g.seq, left)
	}
	q.arm()
}

// close stops the timer and forgets every gap.
func (q *gapQueue) close() {
	q.timer.Stop()
	q.reqs, q.lives, q.armed = fifo[gap]{}, fifo[gap]{}, false
}
