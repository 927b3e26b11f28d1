package seqno

import (
	"slices"
	"testing"
	"time"

	"sonet/internal/sim"
)

// sentRequest is one request a test queue sent: when, which call of the
// request callback it came in, and what it carried.
type sentRequest struct {
	at   time.Duration
	call int
	Request
}

// queueRig is a Queue over a Window on a scheduler, logging its requests.
type queueRig struct {
	sched *sim.Scheduler
	win   *Window
	q     *Queue
	sent  []sentRequest
	calls int
}

func newQueueRig(s Schedule) *queueRig {
	r := &queueRig{sched: sim.NewScheduler(1), win: NewWindow(64)}
	r.q = NewQueue(r.sched, r.win, func(due []Request) {
		r.calls++
		for _, req := range due {
			r.sent = append(r.sent, sentRequest{r.sched.Now(), r.calls, req})
		}
	}, s)
	return r
}

// arrive records seq and reveals it, as a receiver does with an arrival it
// accepts.
func (r *queueRig) arrive(seq uint32) bool {
	if !r.win.Record(seq) {
		return false
	}
	return r.q.Reveal(seq)
}

// TestQueueRequestAndGiveUpOffsets runs two gaps, found 15 ms apart,
// through a schedule whose first request leaves at discovery and through
// one whose first request waits a step. Each gap gets its own requests at
// its own offsets, with the time left to its give-up, and is given up Life
// after it was found, not when an older gap is.
func TestQueueRequestAndGiveUpOffsets(t *testing.T) {
	const ms = time.Millisecond
	for _, tc := range []struct {
		wait bool
		want []sentRequest
	}{
		{false, []sentRequest{
			{5 * ms, 1, Request{2, 40 * ms}},
			{15 * ms, 2, Request{2, 30 * ms}},
			{20 * ms, 3, Request{4, 40 * ms}},
			{25 * ms, 4, Request{2, 20 * ms}},
			{30 * ms, 5, Request{4, 30 * ms}},
			{40 * ms, 6, Request{4, 20 * ms}},
		}},
		{true, []sentRequest{
			{15 * ms, 1, Request{2, 30 * ms}},
			{25 * ms, 2, Request{2, 20 * ms}},
			{30 * ms, 3, Request{4, 30 * ms}},
			{35 * ms, 4, Request{2, 10 * ms}},
			{40 * ms, 5, Request{4, 20 * ms}},
			{50 * ms, 6, Request{4, 10 * ms}},
		}},
	} {
		r := newQueueRig(Schedule{Step: 10 * ms, Tries: 3, Wait: tc.wait, Life: 40 * ms, Clamp: 64})
		r.sched.At(5*ms, func() { r.arrive(1); r.arrive(3) })
		r.sched.At(20*ms, func() { r.arrive(5) })
		r.sched.RunUntil(45*ms - 1)
		if got := r.win.Cum(); got != 1 {
			t.Fatalf("wait %v: edge %d just before the first give-up, want 1", tc.wait, got)
		}
		r.sched.RunUntil(45 * ms)
		if got := r.win.Cum(); got != 3 {
			t.Fatalf("wait %v: edge %d at the first give-up, want 3", tc.wait, got)
		}
		r.sched.RunUntil(60*ms - 1)
		if got := r.win.Cum(); got != 3 {
			t.Fatalf("wait %v: edge %d just before the second give-up, want 3", tc.wait, got)
		}
		r.sched.Run()
		if got := r.win.Cum(); got != 5 || r.q.Len() != 0 || r.sched.Now() != 60*ms {
			t.Fatalf("wait %v: edge %d, %d gaps queued, last event at %v; want 5, 0, 60ms", tc.wait, got, r.q.Len(), r.sched.Now())
		}
		if !slices.Equal(r.sent, tc.want) {
			t.Fatalf("wait %v: requests\n%v\nwant\n%v", tc.wait, r.sent, tc.want)
		}
	}
}

// TestQueueClampKeepsNewestGaps reveals 19 gaps at once through a clamp of
// 4: the newest four are queued and requested, in one call, and the older
// fifteen are given up on the spot.
func TestQueueClampKeepsNewestGaps(t *testing.T) {
	r := newQueueRig(Schedule{Step: time.Millisecond, Tries: 2, Life: 10 * time.Millisecond, Clamp: 4})
	if !r.arrive(20) {
		t.Fatal("a reveal of 19 gaps through a clamp of 4 did not report the clamp")
	}
	var seqs []uint32
	for _, s := range r.sent {
		seqs = append(seqs, s.Seq)
	}
	if !slices.Equal(seqs, []uint32{16, 17, 18, 19}) || r.calls != 1 {
		t.Fatalf("requested %v in %d calls, want [16 17 18 19] in 1", seqs, r.calls)
	}
	if r.q.Len() != 4 || r.win.Cum() != 15 {
		t.Fatalf("%d gaps queued, edge %d; want 4 and 15", r.q.Len(), r.win.Cum())
	}
	if r.arrive(21) {
		t.Fatal("an arrival next to the last one reported a clamp")
	}
}

// TestQueueDropsArrivalAtHead lets a gap's sequence arrive after its first
// request: no request follows, the queue drops the gap when it reaches the
// head, and nothing is left armed.
func TestQueueDropsArrivalAtHead(t *testing.T) {
	r := newQueueRig(Schedule{Step: 10 * time.Millisecond, Tries: 5, Life: 50 * time.Millisecond, Clamp: 64})
	r.arrive(1)
	r.arrive(3)
	r.sched.RunFor(5 * time.Millisecond)
	r.arrive(2)
	r.sched.Run()
	if len(r.sent) != 1 || r.win.Cum() != 3 || r.q.Len() != 0 || r.sched.Pending() != 0 {
		t.Fatalf("%d requests, edge %d, %d gaps queued, %d events pending; want 1, 3, 0, 0",
			len(r.sent), r.win.Cum(), r.q.Len(), r.sched.Pending())
	}
}

// TestQueueWrapsAt2p32 finds three gaps straddling 2^32 — 0xffffffff, 0
// and 1 — requests them in order, recovers one and gives the other two up,
// and the edge ends past the wrap.
func TestQueueWrapsAt2p32(t *testing.T) {
	r := newQueueRig(Schedule{Step: 10 * time.Millisecond, Tries: 2, Life: 30 * time.Millisecond, Clamp: 64})
	r.win.cum, r.q.last = 0xfffffffd, 0xfffffffd
	r.arrive(0xfffffffe)
	r.arrive(2)
	r.sched.RunFor(5 * time.Millisecond)
	r.arrive(0)
	r.sched.Run()
	var seqs []uint32
	for _, s := range r.sent {
		seqs = append(seqs, s.Seq)
	}
	if want := []uint32{0xffffffff, 0, 1, 0xffffffff, 1}; !slices.Equal(seqs, want) {
		t.Fatalf("requested %#x, want %#x", seqs, want)
	}
	if r.win.Cum() != 2 || r.q.Len() != 0 {
		t.Fatalf("edge %#x with %d gaps queued, want 2 and 0", r.win.Cum(), r.q.Len())
	}
}

// countingReceiver counts what a Queue asks of its receiver.
type countingReceiver struct {
	*Window
	seen, passes int
}

func (c *countingReceiver) Seen(seq uint32) bool {
	c.seen++
	return c.Window.Seen(seq)
}

func (c *countingReceiver) Pass(seq uint32) {
	c.passes++
	c.Window.Pass(seq)
}

// TestQueueGivesUpLongSpanAtOnce reveals an arrival 2^31 − 1 past an empty
// window: the queue gives the span past the clamp up in one Pass and looks
// at the clamp's sequences only, never stepping through the span.
func TestQueueGivesUpLongSpanAtOnce(t *testing.T) {
	sched := sim.NewScheduler(1)
	rx := &countingReceiver{Window: NewWindow(64)}
	q := NewQueue(sched, rx, func([]Request) {}, Schedule{Step: time.Millisecond, Tries: 1, Life: time.Millisecond, Clamp: 8})
	const seq = 1<<31 - 1
	if !q.Reveal(seq) {
		t.Fatal("a 2^31 span did not report the clamp")
	}
	if rx.passes != 1 || rx.seen != 8 || q.Len() != 8 || rx.Cum() != seq-9 {
		t.Fatalf("%d passes, %d Seen calls, %d gaps queued, edge %#x; want 1, 8, 8, %#x", rx.passes, rx.seen, q.Len(), rx.Cum(), seq-9)
	}
	sched.Run()
	if rx.Cum() != seq-1 {
		t.Fatalf("edge %#x after the clamp's gaps were given up, want %#x", rx.Cum(), seq-1)
	}
}
