// Package sim provides the discrete-event simulation core used to run
// structured overlay networks in deterministic virtual time, together with
// the Clock and Executor abstractions that let the very same protocol code
// run over real wall-clock time in a deployed daemon.
//
// All protocol state machines in this repository are written against Clock
// and never read the wall clock directly. In emulation mode a single
// Scheduler drives every overlay node, yielding bit-for-bit reproducible
// experiments from a seed. In deployment mode a RealtimeClock dispatches
// timer callbacks onto the daemon's event loop.
package sim

import "time"

// Timer is a handle to one callback on a Clock. The callback runs once per
// arming: After arms it at creation, NewTimer leaves it idle until the
// first Reset or ResetAt. A Timer belongs to the clock that made it and,
// like all protocol state on that clock, is used from the clock's
// executor: it is armed and stopped from callbacks and posted closures of
// that executor, which is what makes "Stop returned true" mean the
// callback will not run.
type Timer interface {
	// Stop cancels the pending callback. It reports whether the call
	// prevented the callback from firing (false if the callback already
	// ran or the timer is idle). A stopped timer can be Reset.
	Stop() bool

	// Reset arms the timer to fire d from now, whether it is pending (the
	// deadline moves, earlier or later), stopped, or has fired — including
	// from inside its own callback. A non-positive d fires as soon as
	// possible, still asynchronously. Reset allocates nothing. It is
	// ResetAt(Now() + max(d, 0)).
	Reset(d time.Duration)

	// ResetAt is Reset to the absolute clock time at: a caller that holds
	// a deadline, or the time it was computed from, arms without reading
	// the clock again. An at not after Now fires as soon as possible,
	// still asynchronously.
	ResetAt(at time.Duration)
}

// Clock provides virtual or real time to protocol code.
//
// Now returns the time elapsed since the clock's epoch. Implementations
// guarantee that callbacks scheduled on the same Clock never run
// concurrently with each other: protocol code using a single Clock needs no
// locking. Timers are created, Reset and Stopped from the clock's executor
// (see Timer).
type Clock interface {
	// Now returns the current time relative to the clock's epoch.
	Now() time.Duration

	// After schedules fn to run once, d from now. A non-positive d schedules
	// the callback to run as soon as possible, still asynchronously. It is
	// NewTimer(fn) followed by Reset(d): right for a callback scheduled
	// once, one allocation too many for a deadline that moves.
	After(d time.Duration, fn func()) Timer

	// NewTimer returns an idle timer that runs fn each time a Reset
	// deadline passes. Code that re-arms one logical timer (a
	// retransmission timeout, a pacing tick, a periodic refresh) makes the
	// timer once and Resets it.
	NewTimer(fn func()) Timer
}

// Executor serializes closures onto a single logical thread of execution.
// Implementations must run posted closures in FIFO order and never
// concurrently.
type Executor interface {
	// Post enqueues fn for execution.
	Post(fn func())
}

// Inline is the Executor that runs posted work at once, on the posting
// goroutine. It serializes nothing: use it where the poster already is the
// only thread of execution (a read loop whose handler just counts, a test).
type Inline struct{}

// Post runs fn.
func (Inline) Post(fn func()) { fn() }

// TurnQueue is the Executor of a goroutine that is its own event loop:
// Post queues work and Run, called when the owner ends its turn, runs it —
// so a burst of underlay Sends coalesces into one flush exactly as on a
// Loop. Only the owning goroutine may Post and Run.
type TurnQueue struct{ tasks []func() }

// Post queues fn for the end of the turn.
func (q *TurnQueue) Post(fn func()) { q.tasks = append(q.tasks, fn) }

// Run runs everything posted since the last turn, in order.
func (q *TurnQueue) Run() {
	for i, fn := range q.tasks {
		fn()
		q.tasks[i] = nil
	}
	q.tasks = q.tasks[:0]
}

// RunnerExecutor is an Executor that can also enqueue a pre-allocated
// Runner without wrapping it in a closure. Per-packet producers (the UDP
// receive loop posting one dispatch per datagram batch) use it so a steady
// stream of posts allocates nothing; PostRunner interleaves with Post in
// FIFO order. Both the real-time Loop and the discrete-event Scheduler
// implement it; callers fall back to Post on executors that do not.
type RunnerExecutor interface {
	Executor
	// PostRunner enqueues r.Run for execution.
	PostRunner(r Runner)
}

// PostRunner enqueues r on exec: without a closure where exec is a
// RunnerExecutor, as r.Run otherwise.
func PostRunner(exec Executor, r Runner) {
	if re, ok := exec.(RunnerExecutor); ok {
		re.PostRunner(r)
		return
	}
	exec.Post(r.Run)
}
