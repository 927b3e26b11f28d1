package sim

import (
	"sync"
	"time"
)

// Loop is a real-time Executor: a single goroutine that runs posted
// closures in FIFO order. Deployed daemons use one Loop per process so that
// protocol code sees the same single-threaded execution model it sees under
// the discrete-event Scheduler.
type Loop struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []loopTask
	closed bool
	done   chan struct{}
}

// loopQueueRetain is the largest queue slice the loop keeps for reuse; one
// exceptional burst must not pin its high-water mark forever.
const loopQueueRetain = 4096

// loopTask is one queue entry: a closure or a pre-allocated Runner.
type loopTask struct {
	fn func()
	r  Runner
}

var _ RunnerExecutor = (*Loop)(nil)

// NewLoop starts a loop goroutine and returns the executor.
func NewLoop() *Loop {
	l := &Loop{done: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	go l.run()
	return l
}

// Post enqueues fn; it is safe to call from any goroutine. Posting to a
// closed loop drops the closure.
func (l *Loop) Post(fn func()) { l.TryPost(fn) }

// TryPost is Post that reports whether fn was enqueued. Everything
// enqueued runs, even across Close, so a caller that waits for fn's
// result must use TryPost and not wait when it reports false.
func (l *Loop) TryPost(fn func()) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.queue = append(l.queue, loopTask{fn: fn})
	l.cond.Signal()
	return true
}

// PostRunner enqueues r.Run, implementing RunnerExecutor: unlike Post
// there is no closure to allocate, so per-packet producers (the UDP batch
// reader) can post a pooled dispatch record for every wakeup without
// generating garbage. FIFO order with Post is preserved.
func (l *Loop) PostRunner(r Runner) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.queue = append(l.queue, loopTask{r: r})
	l.cond.Signal()
}

// Pending returns how many posted tasks wait for the loop; the batch it is
// running, if any, is not counted. Safe from any goroutine.
func (l *Loop) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// Close stops the loop after the already-queued closures run and waits for
// the loop goroutine to exit.
func (l *Loop) Close() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		<-l.done
		return
	}
	l.closed = true
	l.cond.Signal()
	l.mu.Unlock()
	<-l.done
}

func (l *Loop) run() {
	defer close(l.done)
	// The queue is double-buffered: producers append to one slice while
	// the loop runs the other, so a steady stream of posts stops
	// allocating once both have grown to the burst size.
	var spare []loopTask
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.queue) == 0 && l.closed {
			l.mu.Unlock()
			return
		}
		batch := l.queue
		l.queue = spare
		l.mu.Unlock()
		for _, t := range batch {
			if t.r != nil {
				t.r.Run()
			} else {
				t.fn()
			}
		}
		clear(batch) // drop the closures and runners just run
		spare = batch[:0]
		if cap(spare) > loopQueueRetain {
			spare = nil
		}
	}
}

// RealtimeClock implements Clock over the wall clock, dispatching timer
// callbacks onto an Executor so that protocol code remains single-threaded.
//
// The clock owns its timers: a min-heap of timer records ordered by
// deadline and exactly one runtime timer, armed for the earliest of them.
// Arming, moving or stopping a timer is a heap operation under the clock's
// lock; the runtime timer is touched only when the earliest deadline moves
// earlier, so a deadline that keeps being pushed back (a retransmission
// timeout re-armed by every ack) costs no runtime-timer work at all, at
// the price of one idle wake-up when the stale deadline passes. The
// wake-up posts one pre-allocated Runner to the executor, and it is the
// executor that pops and runs every due callback.
type RealtimeClock struct {
	exec  Executor
	epoch time.Time

	// anchor sets base and baseVal once, on the first reading: Now is
	// baseVal plus the monotonic-clock distance from base, a time.Now
	// reading, so wall-clock steps (NTP) cannot skew or freeze the clock
	// and a reading takes no lock.
	anchor  sync.Once
	base    time.Time
	baseVal time.Duration

	// mu guards the timer heap and the runtime timer: start-up code arms
	// its first timers before the executor runs.
	mu     sync.Mutex
	timers eventHeap
	seq    uint64
	// wake is the one runtime timer, made on the first arming. While
	// waking is set it is due to post an expiry pass at or before wakeAt.
	wake   *time.Timer
	wakeAt time.Duration
	waking bool
}

var _ Clock = (*RealtimeClock)(nil)

// NewRealtimeClock returns a clock whose epoch is the moment of creation
// and whose callbacks run on exec.
func NewRealtimeClock(exec Executor) *RealtimeClock {
	return &RealtimeClock{exec: exec, epoch: time.Now()}
}

// NewRealtimeClockAt returns a clock anchored at a caller-supplied epoch
// whose callbacks run on exec. A sharded daemon gives every shard loop
// its own clock constructed from one shared epoch, so timestamps taken on
// different shards (packet origins, scheduler deadlines) are mutually
// comparable. The epoch should be a recent time.Now() reading: with its
// monotonic component, the offset from it is measured on the monotonic
// clock too.
func NewRealtimeClockAt(exec Executor, epoch time.Time) *RealtimeClock {
	return &RealtimeClock{exec: exec, epoch: epoch}
}

// Now returns the time elapsed since the clock's epoch: one monotonic
// reading, taken without a lock, so readings never decrease. Only the
// first reading is measured against the epoch, clamped at zero. An epoch
// that lost its monotonic reading (serialized, arithmetic-stripped, or
// predating the process) would otherwise make every reading wall-clock
// arithmetic, which a wall step makes jump, freeze, or go negative —
// wrecking RTT estimates, timer deadlines, and origin timestamps that
// assume time flows forward at one second per second.
func (c *RealtimeClock) Now() time.Duration {
	c.anchor.Do(c.setBase)
	return c.baseVal + time.Since(c.base)
}

func (c *RealtimeClock) setBase() {
	c.base = time.Now()
	c.baseVal = max(c.base.Sub(c.epoch), 0)
}

// After schedules fn on the executor d from now.
func (c *RealtimeClock) After(d time.Duration, fn func()) Timer {
	ev := &event{fn: fn, q: c}
	c.arm(ev, d)
	return ev
}

// NewTimer returns an idle re-armable timer whose callback runs on the
// executor.
func (c *RealtimeClock) NewTimer(fn func()) Timer { return &event{fn: fn, q: c} }

// arm implements timerQueue for Timer.Reset.
func (c *RealtimeClock) arm(ev *event, d time.Duration) { c.armAt(ev, c.Now()+max(d, 0)) }

// armAt implements timerQueue for Timer.ResetAt. It reads the clock only
// when the runtime timer must move earlier.
func (c *RealtimeClock) armAt(ev *event, at time.Duration) {
	c.mu.Lock()
	c.timers.schedule(ev, at, c.seq)
	c.seq++
	c.armWake()
	c.mu.Unlock()
}

// disarm implements timerQueue for Timer.Stop. The runtime timer is left
// alone: if ev was the earliest, the wake-up it leaves behind finds
// nothing due and re-arms for what is.
func (c *RealtimeClock) disarm(ev *event) bool {
	c.mu.Lock()
	queued := c.timers.remove(ev)
	c.mu.Unlock()
	return queued
}

// armWake makes sure an expiry pass is due no later than the earliest
// deadline. c.mu is held.
func (c *RealtimeClock) armWake() {
	if len(c.timers) == 0 {
		return
	}
	at := c.timers[0].at
	if c.waking && c.wakeAt <= at {
		return
	}
	c.waking, c.wakeAt = true, at
	now := c.Now()
	if c.wake != nil {
		c.wake.Reset(at - now)
		return
	}
	// The runtime timer's goroutine only hands the expiry pass to the
	// executor: as a Runner where the executor takes one, as the one
	// closure made here otherwise.
	var post func()
	if re, ok := c.exec.(RunnerExecutor); ok {
		post = func() { re.PostRunner((*clockExpiry)(c)) }
	} else {
		expire := c.expire
		post = func() { c.exec.Post(expire) }
	}
	c.wake = time.AfterFunc(at-now, post)
}

// clockExpiry is RealtimeClock as the Runner its wake-up posts.
type clockExpiry RealtimeClock

// Run implements Runner.
func (x *clockExpiry) Run() { (*RealtimeClock)(x).expire() }

// expire runs, on the executor, every timer that is due, then re-arms the
// runtime timer for the earliest one left. Timers armed by the callbacks
// themselves wait for the next pass even when already due, so a callback
// that re-arms with no delay cannot keep the executor from its queue.
func (c *RealtimeClock) expire() {
	now := c.Now()
	c.mu.Lock()
	c.waking = false
	armedBefore := c.seq
	for len(c.timers) > 0 {
		ev := c.timers[0]
		if ev.at > now || ev.seq >= armedBefore {
			break
		}
		c.timers.pop()
		c.mu.Unlock()
		ev.fn()
		c.mu.Lock()
	}
	c.armWake()
	c.mu.Unlock()
}
