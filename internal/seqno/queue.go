package seqno

import (
	"math"
	"time"

	"sonet/internal/sim"
)

// Receiver is the record of arrivals a Queue recovers gaps in: a link's
// Window, or a reliable flow's hold-back buffer.
type Receiver interface {
	// Seen reports whether seq has arrived or been given up.
	Seen(seq uint32) bool
	// Pass gives up every sequence at or before seq that has not arrived.
	Pass(seq uint32)
}

// Schedule is what a Queue does with every gap it finds, in offsets from
// the arrival that revealed it.
type Schedule struct {
	// Step is the time between two requests for one gap, and Tries the
	// number of requests it gets.
	Step  time.Duration
	Tries int
	// Wait holds the first request back one Step; without it the first
	// request leaves from the call that finds the gap.
	Wait bool
	// Life is when the gap is given up.
	Life time.Duration
	// Clamp bounds the gaps one arrival queues: the newest Clamp are
	// queued, and every sequence older than them is given up at once.
	Clamp uint32
}

// Request is one request for a gap: its sequence and the time left until
// the queue gives it up.
type Request struct {
	Seq  uint32
	Left time.Duration
}

// gap is one missing sequence in one of the FIFOs: the requests it has
// had, when its next request, or its give-up, is due, and when it is
// given up.
type gap struct {
	seq      uint32
	sent     int
	due, end time.Duration
}

// Queue is a receiver's recovery schedule. Discovery is one rule: every
// accepted arrival is revealed, and each sequence between the highest one
// revealed before and it that has not been seen is a gap. A gap is
// requested Tries times, Step apart, and given up Life after it was found:
// passed in the Receiver as if it had arrived, which moves the cumulative
// edge past it.
//
// Every gap runs the same offsets from its discovery, so one timer serves
// them all. reqs, where a gap goes back to the tail after each request, is
// in due order; lives, one entry per gap, is in discovery order and so in
// give-up order; the timer is armed for the earlier of the two heads. A
// gap that arrives needs no cancelling: it reads as seen when it reaches a
// head and is dropped there. Gaps are queued in ascending order and given
// up in it, so when one is given up every sequence before it is seen.
type Queue struct {
	clock   sim.Clock
	timer   sim.Timer
	rx      Receiver
	request func(due []Request)
	s       Schedule

	reqs, lives FIFO[gap]
	// last is the highest sequence revealed: a missing sequence was queued
	// iff it is at or below last.
	last uint32
	// due is scratch for the requests one call sends.
	due []Request
	// at is the deadline the timer is armed for, while armed.
	at     time.Duration
	armed  bool
	closed bool
}

// NewQueue returns the recovery schedule s over rx. request receives the
// requests that fall due together, in one call per arrival or firing.
func NewQueue(clock sim.Clock, rx Receiver, request func(due []Request), s Schedule) *Queue {
	q := &Queue{clock: clock, rx: rx, request: request, s: s}
	q.timer = clock.NewTimer(q.fire)
	return q
}

// Reveal is called for every accepted arrival: it queues the unseen
// sequences between the highest one revealed before and seq, sending
// their first requests unless the schedule waits, and reports whether it
// gave the ones past the clamp up.
func (q *Queue) Reveal(seq uint32) (clamped bool) {
	if !LT(q.last, seq) {
		return false
	}
	from := q.last
	q.last = seq
	if seq-from-1 > q.s.Clamp {
		from = seq - 1 - q.s.Clamp
		q.rx.Pass(from)
		// Every gap queued so far lies at or before from. Kept, one could
		// reach a head after the edge had moved half the sequence space
		// past it, where serial order reads it as ahead and gives up
		// everything up to it.
		q.reqs, q.lives = FIFO[gap]{}, FIFO[gap]{}
		clamped = true
	}
	// The clock is read at the first gap: an arrival that reveals none,
	// the common case, needs no time.
	now := time.Duration(-1)
	q.due = q.due[:0]
	for s := from + 1; s != seq; s++ {
		if q.rx.Seen(s) {
			continue
		}
		if now < 0 {
			now = q.clock.Now()
		}
		q.lives.Push(gap{seq: s, due: now + q.s.Life})
		g := gap{seq: s, due: now + q.s.Step, end: now + q.s.Life}
		if !q.s.Wait && q.s.Tries > 0 {
			q.due = append(q.due, Request{s, q.s.Life})
			g.sent = 1
		}
		if g.sent < q.s.Tries {
			q.reqs.Push(g)
		}
	}
	q.arm()
	if len(q.due) > 0 {
		q.request(q.due)
	}
	return clamped
}

// Len returns the number of gaps on the schedule, counting those that
// have arrived since and wait to be dropped at its head.
func (q *Queue) Len() int { return q.lives.Len() }

// arm makes sure the timer fires by the earlier head's deadline.
func (q *Queue) arm() {
	if q.closed || q.reqs.Len()+q.lives.Len() == 0 {
		return
	}
	at := time.Duration(math.MaxInt64)
	if q.reqs.Len() > 0 {
		at = q.reqs.Front().due
	}
	if q.lives.Len() > 0 {
		at = min(at, q.lives.Front().due)
	}
	if q.armed && q.at <= at {
		return
	}
	q.at, q.armed = at, true
	q.timer.ResetAt(at)
}

// fire gives up every gap whose life is over, then sends every request
// that is due, and re-arms for what is left.
func (q *Queue) fire() {
	q.armed = false
	now := q.clock.Now()
	for q.lives.Len() > 0 && q.lives.Front().due <= now {
		if g := q.lives.Pop(); !q.rx.Seen(g.seq) {
			q.rx.Pass(g.seq)
		}
	}
	q.due = q.due[:0]
	for q.reqs.Len() > 0 && q.reqs.Front().due <= now {
		g := q.reqs.Pop()
		if q.rx.Seen(g.seq) {
			continue
		}
		q.due = append(q.due, Request{g.seq, g.end - now})
		if g.sent++; g.sent < q.s.Tries {
			g.due = now + q.s.Step
			q.reqs.Push(g)
		}
	}
	if len(q.due) > 0 {
		q.request(q.due)
	}
	q.arm()
}

// Close stops the timer and forgets every gap; the queue arms nothing
// afterwards.
func (q *Queue) Close() {
	q.timer.Stop()
	q.reqs, q.lives, q.armed, q.closed = FIFO[gap]{}, FIFO[gap]{}, false, true
}
