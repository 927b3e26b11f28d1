package sim

import (
	"math/rand/v2"
	"time"
)

// Runner is a pre-allocated alternative to a timer closure: callers that
// schedule the same kind of event per packet (the underlay's delivery
// queue) implement Run on a pooled record and avoid a closure allocation
// per event. Events scheduled with AfterRunner return no Timer handle, so
// the scheduler is free to recycle the event object itself.
type Runner interface {
	// Run executes the scheduled work.
	Run()
}

// RunnerFunc adapts a function to Runner. A func value is one pointer, so
// the conversion to Runner allocates nothing: AfterRunner(d, RunnerFunc(fn))
// is an uncancellable After(d, fn) on a pooled event.
type RunnerFunc func()

// Run implements Runner.
func (f RunnerFunc) Run() { f() }

// Scheduler is a deterministic discrete-event scheduler with a virtual
// clock. Events scheduled for the same instant run in scheduling order.
//
// Scheduler implements Clock and Executor. It is not safe for concurrent
// use: the entire simulated world runs on the goroutine that calls Run,
// Step, or RunUntil, which is exactly what makes simulations reproducible.
type Scheduler struct {
	now    time.Duration
	seq    uint64
	events eventHeap
	rng    *rand.Rand
	ran    uint64
	// free recycles events scheduled without a Timer handle (AfterRunner):
	// no handle can outlive the firing, so the object is safe to reuse.
	free []*event
}

// NewScheduler returns a scheduler whose virtual clock starts at zero and
// whose random stream is derived from seed.
func NewScheduler(seed uint64) *Scheduler {
	return &Scheduler{
		rng: rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random stream.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// EventsRun returns the number of events executed so far.
func (s *Scheduler) EventsRun() uint64 { return s.ran }

// Pending returns the number of events currently scheduled. Stop removes
// its event from the heap at once, so timer-heavy protocols that cancel
// almost every timer (Reliable retransmissions, NM-Strikes) keep the heap
// proportional to the live timer count.
func (s *Scheduler) Pending() int { return len(s.events) }

// After schedules fn to run d from now and returns a cancellable handle.
// Non-positive delays schedule fn at the current instant (it still runs
// asynchronously, after the currently executing event returns).
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// At schedules fn to run at absolute virtual time t. Times in the past are
// clamped to now.
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	if t < s.now {
		t = s.now
	}
	ev := &event{fn: fn, q: s}
	s.schedule(ev, t)
	return ev
}

// NewTimer returns an idle re-armable timer for fn, implementing Clock.
func (s *Scheduler) NewTimer(fn func()) Timer { return &event{fn: fn, q: s} }

// schedule queues ev at virtual time at — or moves it there when it is
// already queued — drawing the next scheduling-order number either way.
// Pop order is a function of (at, seq) alone, so re-arming in place runs
// the world exactly as cancelling ev and scheduling a fresh event would.
func (s *Scheduler) schedule(ev *event, at time.Duration) {
	s.events.schedule(ev, at, s.seq)
	s.seq++
}

// arm implements timerQueue for Timer.Reset.
func (s *Scheduler) arm(ev *event, d time.Duration) { s.schedule(ev, s.now+max(d, 0)) }

// armAt implements timerQueue for Timer.ResetAt. Times in the past are
// clamped to now, as in At.
func (s *Scheduler) armAt(ev *event, at time.Duration) { s.schedule(ev, max(at, s.now)) }

// disarm implements timerQueue for Timer.Stop.
func (s *Scheduler) disarm(ev *event) bool { return s.events.remove(ev) }

// AfterRunner schedules r.Run to execute d from now. It returns no Timer
// handle, which lets the scheduler pool the event object: a steady stream
// of AfterRunner events allocates nothing once the pool is warm. Use it
// for uncancellable per-packet work; use After for anything that may need
// Stop.
func (s *Scheduler) AfterRunner(d time.Duration, r Runner) {
	if d < 0 {
		d = 0
	}
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.runner = r
	s.schedule(ev, s.now+d)
}

// Post schedules fn at the current instant, implementing Executor.
func (s *Scheduler) Post(fn func()) { s.After(0, fn) }

// PostRunner schedules r.Run at the current instant on a pooled event,
// implementing RunnerExecutor.
func (s *Scheduler) PostRunner(r Runner) { s.AfterRunner(0, r) }

var _ RunnerExecutor = (*Scheduler)(nil)

// Step runs the single earliest pending event. It reports whether an event
// was run (false when the queue is empty).
func (s *Scheduler) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	s.runEvent(s.events.pop())
	return true
}

// Run executes events until the queue is empty. Protocols with periodic
// timers never drain the queue; such simulations must use RunUntil.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps <= t and then advances the clock
// to t.
func (s *Scheduler) RunUntil(t time.Duration) {
	for len(s.events) > 0 && s.events[0].at <= t {
		s.runEvent(s.events.pop())
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor executes events for a span of d virtual time starting from now.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// NextEventAt reports the timestamp of the earliest pending event. ok is
// false when none remain.
func (s *Scheduler) NextEventAt() (at time.Duration, ok bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// RunUntilQuiesce executes events until the world quiesces — no live event
// is scheduled within idle of the current instant — or until deadline
// virtual time has elapsed from now, whichever comes first. It reports
// whether quiescence was reached. Periodic timers (hellos, refresh floods)
// never leave a gap, so callers watching such worlds should size idle below
// the shortest period they want to see through, or use a bound-based wait.
func (s *Scheduler) RunUntilQuiesce(idle, deadline time.Duration) bool {
	limit := s.now + deadline
	for {
		at, ok := s.NextEventAt()
		if !ok || at > s.now+idle {
			return true
		}
		if at > limit {
			s.now = limit
			return false
		}
		s.Step()
	}
}

// runEvent advances the clock to ev and executes it. A Runner's event has
// no Timer handle that could outlive the firing, so it goes back on the
// free list before the Runner executes and nested AfterRunner calls from
// inside Run reuse the object immediately. Events with a handle are left
// to the garbage collector: the handle may be Reset or Stopped later.
func (s *Scheduler) runEvent(ev *event) {
	s.now = ev.at
	s.ran++
	if r := ev.runner; r != nil {
		*ev = event{}
		s.free = append(s.free, ev)
		r.Run()
		return
	}
	ev.fn()
}
