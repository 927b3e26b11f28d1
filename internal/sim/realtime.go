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
type RealtimeClock struct {
	exec  Executor
	epoch time.Time

	mu sync.Mutex
	// base anchors elapsed-time measurement: Now is baseVal plus the
	// monotonic-clock distance from base, so wall-clock steps (NTP) during
	// or after startup cannot skew or freeze the clock. base always
	// carries a monotonic reading — it is taken with time.Now at
	// construction, or lazily on the first reading for struct-literal
	// clocks whose epoch may be wall-only.
	base    time.Time
	baseVal time.Duration
	last    time.Duration
}

var _ Clock = (*RealtimeClock)(nil)

// NewRealtimeClock returns a clock whose epoch is the moment of creation
// and whose callbacks run on exec.
func NewRealtimeClock(exec Executor) *RealtimeClock {
	now := time.Now()
	return &RealtimeClock{exec: exec, epoch: now, base: now}
}

// NewRealtimeClockAt returns a clock anchored at a caller-supplied epoch
// whose callbacks run on exec. A sharded daemon gives every shard loop
// its own clock constructed from one shared epoch, so timestamps taken on
// different shards (packet origins, scheduler deadlines) are mutually
// comparable. The epoch should be a recent time.Now() reading: its
// monotonic component anchors elapsed-time measurement.
func NewRealtimeClockAt(exec Executor, epoch time.Time) *RealtimeClock {
	return &RealtimeClock{exec: exec, epoch: epoch, base: epoch}
}

// Now returns the time elapsed since the clock's epoch, measured on the
// monotonic clock and clamped to be non-decreasing. Subtracting the epoch
// directly would degrade to wall-clock arithmetic whenever the epoch lost
// its monotonic reading (serialized, arithmetic-stripped, or predating the
// process); a wall step would then make readings jump, freeze under the
// non-decreasing clamp, or go negative — wrecking RTT estimates, timer
// deadlines, and origin timestamps that assume time flows forward at one
// second per second.
func (c *RealtimeClock) Now() time.Duration {
	now := time.Now()
	c.mu.Lock()
	if c.base.IsZero() {
		// Struct-literal construction: anchor to this first reading. The
		// epoch offset is wall-only here, so clamp it — an epoch ahead of
		// the wall clock must not read negative.
		c.baseVal = now.Sub(c.epoch)
		if c.baseVal < 0 {
			c.baseVal = 0
		}
		c.base = now
	}
	d := c.baseVal + now.Sub(c.base)
	if d < c.last {
		d = c.last
	} else {
		c.last = d
	}
	c.mu.Unlock()
	return d
}

// After schedules fn on the executor d from now.
func (c *RealtimeClock) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	rt := &realTimer{}
	rt.t = time.AfterFunc(d, func() {
		rt.mu.Lock()
		stopped := rt.stopped
		rt.mu.Unlock()
		if stopped {
			return
		}
		c.exec.Post(func() {
			rt.mu.Lock()
			stopped := rt.stopped
			rt.fired = true
			rt.mu.Unlock()
			if !stopped {
				fn()
			}
		})
	})
	return rt
}

// realTimer adapts time.Timer to the Timer interface with exactly-once
// semantics across the AfterFunc goroutine and the executor.
type realTimer struct {
	mu      sync.Mutex
	t       *time.Timer
	stopped bool
	fired   bool
}

func (rt *realTimer) Stop() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.stopped || rt.fired {
		return false
	}
	rt.stopped = true
	rt.t.Stop()
	return true
}
