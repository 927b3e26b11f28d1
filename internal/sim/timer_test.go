package sim

import (
	"cmp"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// clockRig drives one Clock implementation through the timer contract.
// Everything that touches a timer goes through do, so it runs where the
// contract says timers are used: on the clock's executor.
type clockRig struct {
	clock Clock
	// do runs fn on the clock's executor and returns when it has run.
	do func(fn func())
	// pass lets at least d of clock time go by and every callback due by
	// then run.
	pass func(d time.Duration)
	// settle runs callbacks until no timer is armed.
	settle func()
	// onExecutor reports whether the caller runs on the clock's executor.
	onExecutor func() bool
	// exact is set when callbacks fire at their deadline to the
	// nanosecond (virtual time); real time only promises "not before".
	exact bool
}

// markedLoop is a Loop that knows when it is running a task.
type markedLoop struct {
	loop *Loop
	in   atomic.Bool
}

func (m *markedLoop) Post(fn func()) {
	m.loop.Post(func() {
		m.in.Store(true)
		fn()
		m.in.Store(false)
	})
}

// runnerLoop adds the RunnerExecutor half, so the clock wakes it with its
// pre-allocated Runner instead of a closure.
type runnerLoop struct{ markedLoop }

func (m *runnerLoop) PostRunner(r Runner) { m.Post(r.Run) }

func realtimeRig(t *testing.T, exec Executor, m *markedLoop) clockRig {
	t.Cleanup(m.loop.Close)
	do := func(fn func()) {
		done := make(chan struct{})
		exec.Post(func() { fn(); close(done) })
		<-done
	}
	c := NewRealtimeClock(exec)
	// await polls cond on the executor, where no callback is running, so
	// when it holds every callback it depends on has returned.
	await := func(what string, cond func() bool) {
		for limit := time.Now().Add(waitLimit); ; runtime.Gosched() {
			var ok bool
			do(func() {
				c.mu.Lock()
				ok = cond()
				c.mu.Unlock()
			})
			if ok {
				return
			}
			if time.Now().After(limit) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	return clockRig{
		clock: c,
		do:    do,
		pass: func(d time.Duration) {
			target := c.Now() + d
			await("the clock to pass its target with nothing due queued", func() bool {
				return c.Now() >= target && (len(c.timers) == 0 || c.timers[0].at > target)
			})
		},
		settle: func() {
			await("every armed timer to fire", func() bool { return len(c.timers) == 0 })
		},
		onExecutor: m.in.Load,
	}
}

func clockRigs() map[string]func(*testing.T) clockRig {
	return map[string]func(*testing.T) clockRig{
		"scheduler": func(*testing.T) clockRig {
			s := NewScheduler(1)
			running := false
			return clockRig{
				clock: s,
				do:    func(fn func()) { fn() },
				pass: func(d time.Duration) {
					running = true
					s.RunFor(d)
					running = false
				},
				settle: func() {
					running = true
					s.Run()
					running = false
				},
				onExecutor: func() bool { return running },
				exact:      true,
			}
		},
		"realtime/runner-executor": func(t *testing.T) clockRig {
			m := &runnerLoop{markedLoop{loop: NewLoop()}}
			return realtimeRig(t, m, &m.markedLoop)
		},
		"realtime/plain-executor": func(t *testing.T) clockRig {
			m := &markedLoop{loop: NewLoop()}
			return realtimeRig(t, m, m)
		},
	}
}

// firing records when a timer's callback ran, in clock time.
type firing struct {
	at          []time.Duration
	offExecutor int
}

func (f *firing) callback(r clockRig) func() {
	return func() {
		f.at = append(f.at, r.clock.Now())
		if !r.onExecutor() {
			f.offExecutor++
		}
	}
}

// check verifies the firings against the deadlines they were armed for.
func (f *firing) check(t *testing.T, r clockRig, deadlines ...time.Duration) {
	t.Helper()
	var got []time.Duration
	r.do(func() { got = append(got, f.at...) })
	if len(got) != len(deadlines) {
		t.Fatalf("fired %d times at %v, want %d", len(got), got, len(deadlines))
	}
	for i, want := range deadlines {
		if got[i] < want || r.exact && got[i] != want {
			t.Fatalf("firing %d at %v, armed for %v", i, got[i], want)
		}
	}
	if f.offExecutor != 0 {
		t.Fatalf("%d callbacks ran off the executor", f.offExecutor)
	}
}

const tick = 5 * time.Millisecond

// TestTimerContract runs one table of timer behaviour against both clocks
// (and, in real time, both ways the clock reaches its executor).
func TestTimerContract(t *testing.T) {
	cases := map[string]func(*testing.T, clockRig){
		"fires once per arming": func(t *testing.T, r clockRig) {
			var f firing
			var due time.Duration
			r.do(func() {
				tm := r.clock.NewTimer(f.callback(r))
				due = r.clock.Now() + tick
				tm.Reset(tick)
			})
			r.pass(tick)
			f.check(t, r, due)
			r.pass(4 * tick)
			f.check(t, r, due)
		},
		"idle until the first Reset": func(t *testing.T, r clockRig) {
			var f firing
			var tm Timer
			r.do(func() { tm = r.clock.NewTimer(f.callback(r)) })
			r.pass(2 * tick)
			f.check(t, r)
			r.do(func() {
				if tm.Stop() {
					t.Error("Stop on an idle timer = true")
				}
			})
		},
		"Stop before fire prevents it": func(t *testing.T, r clockRig) {
			var f firing
			r.do(func() {
				tm := r.clock.NewTimer(f.callback(r))
				tm.Reset(tick)
				if !tm.Stop() {
					t.Error("Stop on a pending timer = false")
				}
				if tm.Stop() {
					t.Error("second Stop = true")
				}
			})
			r.pass(4 * tick)
			f.check(t, r)
		},
		"Stop after fire returns false": func(t *testing.T, r clockRig) {
			var f firing
			var tm Timer
			var due time.Duration
			r.do(func() {
				tm = r.clock.NewTimer(f.callback(r))
				due = r.clock.Now() + tick
				tm.Reset(tick)
			})
			r.pass(tick)
			f.check(t, r, due)
			r.do(func() {
				if tm.Stop() {
					t.Error("Stop after the callback ran = true")
				}
			})
		},
		"Reset moves a pending deadline later": func(t *testing.T, r clockRig) {
			var f firing
			var due time.Duration
			r.do(func() {
				tm := r.clock.NewTimer(f.callback(r))
				tm.Reset(tick)
				due = r.clock.Now() + 6*tick
				tm.Reset(6 * tick)
			})
			r.pass(6 * tick)
			f.check(t, r, due)
		},
		"Reset to an earlier deadline fires earlier": func(t *testing.T, r clockRig) {
			// In real time this is the one case where the clock must
			// re-arm its runtime timer: left at the hour, the callback
			// would not run within the test.
			var f firing
			var due time.Duration
			r.do(func() {
				tm := r.clock.NewTimer(f.callback(r))
				tm.Reset(time.Hour)
				due = r.clock.Now() + tick
				tm.Reset(tick)
			})
			r.pass(tick)
			f.check(t, r, due)
		},
		"ResetAt in the past fires asynchronously": func(t *testing.T, r clockRig) {
			var f firing
			var now time.Duration
			r.do(func() {
				tm := r.clock.NewTimer(f.callback(r))
				now = r.clock.Now()
				tm.ResetAt(now - tick)
				if len(f.at) != 0 {
					t.Error("ResetAt in the past ran the callback inside the call")
				}
			})
			r.pass(0)
			f.check(t, r, now)
		},
		"ResetAt(Now()+d) is Reset(d)": func(t *testing.T, r clockRig) {
			// b is armed after a each time, for the same d from a later
			// reading, so it fires after a: at the same instant in
			// virtual time.
			var fa, fb firing
			var order []string
			var aDue, bDue time.Duration
			r.do(func() {
				ca, cb := fa.callback(r), fb.callback(r)
				a := r.clock.NewTimer(func() { order = append(order, "a"); ca() })
				b := r.clock.NewTimer(func() { order = append(order, "b"); cb() })
				for _, d := range []time.Duration{tick, time.Hour, 2 * tick} {
					aDue = r.clock.Now() + d
					a.Reset(d)
					bDue = r.clock.Now() + d
					b.ResetAt(bDue)
				}
			})
			r.pass(2 * tick)
			fa.check(t, r, aDue)
			fb.check(t, r, bDue)
			r.do(func() {
				if len(order) != 2 || order[0] != "a" {
					t.Errorf("fired in order %v, want [a b]", order)
				}
			})
		},
		"Reset revives a stopped timer": func(t *testing.T, r clockRig) {
			var f firing
			var due time.Duration
			r.do(func() {
				tm := r.clock.NewTimer(f.callback(r))
				tm.Reset(tick)
				tm.Stop()
				due = r.clock.Now() + 2*tick
				tm.Reset(2 * tick)
			})
			r.pass(2 * tick)
			f.check(t, r, due)
		},
		"Reset re-arms a fired timer": func(t *testing.T, r clockRig) {
			var f firing
			var tm Timer
			var first, second time.Duration
			r.do(func() {
				tm = r.clock.NewTimer(f.callback(r))
				first = r.clock.Now() + tick
				tm.Reset(tick)
			})
			r.pass(tick)
			f.check(t, r, first)
			r.do(func() {
				second = r.clock.Now() + tick
				tm.Reset(tick)
			})
			r.pass(tick)
			f.check(t, r, first, second)
		},
		"Reset from the timer's own callback": func(t *testing.T, r clockRig) {
			var tm Timer
			fired := 0
			r.do(func() {
				tm = r.clock.NewTimer(func() {
					if fired++; fired < 4 {
						tm.Reset(tick)
					}
				})
				tm.Reset(0)
			})
			r.settle()
			r.do(func() {
				if fired != 4 {
					t.Errorf("periodic timer fired %d times, want 4", fired)
				}
			})
		},
		"After is a timer armed at birth": func(t *testing.T, r clockRig) {
			var f firing
			var tm Timer
			var first, second time.Duration
			r.do(func() {
				first = r.clock.Now() + tick
				tm = r.clock.After(tick, f.callback(r))
				stopped := r.clock.After(tick, func() { t.Error("stopped After fired") })
				if !stopped.Stop() {
					t.Error("Stop on a pending After = false")
				}
			})
			r.pass(tick)
			f.check(t, r, first)
			r.do(func() {
				if tm.Stop() {
					t.Error("Stop after an After fired = true")
				}
				second = r.clock.Now() + tick
				tm.Reset(tick)
			})
			r.pass(tick)
			f.check(t, r, first, second)
		},
		"many timers fire in deadline order": func(t *testing.T, r clockRig) {
			// Real time cannot promise that the delays' order is the
			// deadlines' (arming takes time), so the order asked for is the
			// one the clock recorded: by deadline, then by arming.
			const n = 40
			delays := rand.New(rand.NewPCG(7, 7)).Perm(n)
			var armed, order []*event
			r.do(func() {
				for _, d := range delays {
					var ev *event
					ev = r.clock.NewTimer(func() { order = append(order, ev) }).(*event)
					ev.Reset(time.Duration(d) * time.Millisecond)
					armed = append(armed, ev)
				}
			})
			r.settle()
			r.do(func() {
				slices.SortFunc(armed, func(a, b *event) int {
					return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
				})
				if !slices.Equal(order, armed) {
					t.Errorf("%d of %d timers fired, not in (deadline, arming) order", len(order), n)
				}
			})
		},
		"equal deadlines fire in arming order": func(t *testing.T, r clockRig) {
			if !r.exact {
				t.Skip("two real-time armings never share a deadline")
			}
			var order []int
			r.do(func() {
				a := r.clock.NewTimer(func() { order = append(order, 0) })
				b := r.clock.NewTimer(func() { order = append(order, 1) })
				a.Reset(tick)
				b.Reset(tick)
				a.Reset(tick) // re-arming a moves it behind b
			})
			r.pass(tick)
			if len(order) != 2 || order[0] != 1 || order[1] != 0 {
				t.Fatalf("fired in order %v, want [1 0]", order)
			}
		},
	}
	for rigName, newRig := range clockRigs() {
		for caseName, run := range cases {
			t.Run(rigName+"/"+caseName, func(t *testing.T) { run(t, newRig(t)) })
		}
	}
}

// TestRealtimeClockOneRuntimeTimer pins the mechanism: any number of
// timers on a RealtimeClock share one runtime timer, and pushing a
// deadline back never touches it.
func TestRealtimeClockOneRuntimeTimer(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := NewRealtimeClock(l)
	rto := c.NewTimer(func() {})
	rto.Reset(time.Hour)
	wake, wakeAt := c.wake, c.wakeAt
	if wake == nil {
		t.Fatal("arming a timer made no runtime timer")
	}
	for i := 0; i < 100; i++ {
		c.NewTimer(func() {}).Reset(2 * time.Hour)
		rto.Reset(time.Hour + time.Duration(i)*time.Second)
	}
	if c.wake != wake || c.wakeAt != wakeAt {
		t.Fatalf("later deadlines re-armed the runtime timer: wakeAt %v -> %v", wakeAt, c.wakeAt)
	}
	rto.Reset(time.Minute)
	if c.wake != wake || c.wakeAt >= wakeAt {
		t.Fatalf("earlier deadline left the runtime timer at %v (was %v)", c.wakeAt, wakeAt)
	}
	if len(c.timers) != 101 {
		t.Fatalf("heap holds %d timers, want 101", len(c.timers))
	}
}

// TestRealtimeTimersRace arms, moves and stops timers from several
// goroutines while the executor fires others: the contract asks callers to
// stay on the executor, but start-up code arms its first timers from the
// constructing goroutine, and that must at least be memory-safe (-race).
func TestRealtimeTimersRace(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := NewRealtimeClock(l)
	var fired atomic.Int64
	done := make(chan struct{})
	const workers, rounds = 4, 200
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			tm := c.NewTimer(func() { fired.Add(1) })
			for i := 0; i < rounds; i++ {
				tm.Reset(time.Duration((i+w)%3) * time.Millisecond)
				if i%5 == 0 {
					tm.Stop()
				}
				c.After(time.Duration(i%2)*time.Millisecond, func() { fired.Add(1) })
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	for limit := time.Now().Add(waitLimit); fired.Load() < workers*rounds && time.Now().Before(limit); {
		runtime.Gosched()
	}
	if got := fired.Load(); got < workers*rounds {
		t.Fatalf("%d callbacks ran, want at least the %d one-shots", got, workers*rounds)
	}
}

// stopAfterWorld is the reference for TestSchedulerResetMatchesStopAfter:
// each logical timer is whatever handle the last After returned, and
// re-arming it is Stop plus a fresh After.
type stopAfterWorld struct {
	s   *Scheduler
	fns []func()
	cur []Timer
}

func (w *stopAfterWorld) reset(i int, d time.Duration) {
	if w.cur[i] != nil {
		w.cur[i].Stop()
	}
	w.cur[i] = w.s.After(d, w.fns[i])
}

func (w *stopAfterWorld) resetAt(i int, at time.Duration) {
	if w.cur[i] != nil {
		w.cur[i].Stop()
	}
	w.cur[i] = w.s.At(at, w.fns[i])
}

func (w *stopAfterWorld) stop(i int) bool { return w.cur[i] != nil && w.cur[i].Stop() }

// resetWorld expresses the same operations with one handle per logical
// timer, made once.
type resetWorld struct{ timers []Timer }

func (w *resetWorld) reset(i int, d time.Duration)    { w.timers[i].Reset(d) }
func (w *resetWorld) resetAt(i int, at time.Duration) { w.timers[i].ResetAt(at) }
func (w *resetWorld) stop(i int) bool                 { return w.timers[i].Stop() }

type traceRunner struct {
	trace *[]traceEntry
	s     *Scheduler
	id    int
}

type traceEntry struct {
	id int
	at time.Duration
}

func (r *traceRunner) Run() { *r.trace = append(*r.trace, traceEntry{r.id, r.s.Now()}) }

// TestSchedulerResetMatchesStopAfter is the differential property behind
// "replays stay identical": a seeded random mix of NewTimer/Reset/Stop on
// logical timers, ResetAt to instants ahead and behind, one-shot After and
// AfterRunner events, callbacks that re-arm other timers, and clock
// advances produces the same firing trace — same callbacks, same instants,
// same order among equal instants — whether re-arming is Reset or ResetAt
// in place or Stop plus a fresh After or At.
func TestSchedulerResetMatchesStopAfter(t *testing.T) {
	const timers, ops = 12, 4000
	type world interface {
		reset(i int, d time.Duration)
		resetAt(i int, at time.Duration)
		stop(i int) bool
	}
	run := func(seed uint64, inPlace bool) (trace []traceEntry, stops []bool, ran uint64, pending int) {
		s := NewScheduler(seed)
		rng := rand.New(rand.NewPCG(seed, 99))
		delay := func() time.Duration { return time.Duration(rng.IntN(8)) * time.Millisecond }
		var w world
		fns := make([]func(), timers)
		for i := range fns {
			i := i
			fns[i] = func() {
				trace = append(trace, traceEntry{i, s.Now()})
				// A callback re-arms itself or a neighbour now and then,
				// the way RTO and pacing handlers do.
				switch rng.IntN(4) {
				case 0:
					w.reset(i, delay())
				case 1:
					w.reset((i+1)%timers, delay())
				}
			}
		}
		if inPlace {
			rw := &resetWorld{}
			for _, fn := range fns {
				rw.timers = append(rw.timers, s.NewTimer(fn))
			}
			w = rw
		} else {
			w = &stopAfterWorld{s: s, fns: fns, cur: make([]Timer, timers)}
		}
		for op := 0; op < ops; op++ {
			i := rng.IntN(timers)
			switch rng.IntN(9) {
			case 0, 1, 2:
				w.reset(i, delay())
			case 8:
				w.resetAt(i, s.Now()+delay()-4*time.Millisecond)
			case 3:
				stops = append(stops, w.stop(i))
			case 4:
				id := timers + op
				s.After(delay(), func() { trace = append(trace, traceEntry{id, s.Now()}) })
			case 5:
				s.AfterRunner(delay(), &traceRunner{trace: &trace, s: s, id: timers + op})
			case 6:
				s.After(delay(), func() {}).Stop()
			case 7:
				s.RunFor(delay())
			}
		}
		pending = s.Pending()
		s.Run()
		return trace, stops, s.EventsRun(), pending
	}
	for seed := uint64(1); seed <= 20; seed++ {
		wantTrace, wantStops, wantRan, wantPending := run(seed, false)
		gotTrace, gotStops, gotRan, gotPending := run(seed, true)
		if len(wantTrace) < ops/4 {
			t.Fatalf("seed %d: reference trace has only %d firings", seed, len(wantTrace))
		}
		if len(gotTrace) != len(wantTrace) || gotRan != wantRan || gotPending != wantPending {
			t.Fatalf("seed %d: Reset world fired %d (ran %d, pending %d), Stop+After world %d (ran %d, pending %d)",
				seed, len(gotTrace), gotRan, gotPending, len(wantTrace), wantRan, wantPending)
		}
		for i := range wantTrace {
			if gotTrace[i] != wantTrace[i] {
				t.Fatalf("seed %d: firing %d is %+v with Reset, %+v with Stop+After", seed, i, gotTrace[i], wantTrace[i])
			}
		}
		for i := range wantStops {
			if gotStops[i] != wantStops[i] {
				t.Fatalf("seed %d: Stop #%d = %v with Reset, %v with Stop+After", seed, i, gotStops[i], wantStops[i])
			}
		}
	}
}

// TestRealtimeTimerAllocBudget pins re-arming a real-time timer — later,
// earlier (which re-arms the runtime timer), in the past and stopped, with
// Reset and with ResetAt — at zero allocations (`make bench-guard`).
func TestRealtimeTimerAllocBudget(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := NewRealtimeClock(l)
	tm := c.NewTimer(func() {})
	c.NewTimer(func() {}).Reset(2 * time.Hour) // company in the heap
	rearm := func() {
		tm.Reset(time.Hour)
		tm.Reset(3 * time.Hour)
		tm.Reset(time.Minute)
		tm.Stop()
		tm.Reset(time.Hour)
		now := c.Now()
		tm.ResetAt(now + 3*time.Hour)
		tm.ResetAt(now + time.Minute)
		tm.ResetAt(now - time.Hour)
		tm.ResetAt(now + time.Hour)
	}
	if avg := testing.AllocsPerRun(1000, rearm); avg != 0 {
		t.Fatalf("re-arming a real-time timer allocates %.2f allocs/op, budget is 0", avg)
	}
}
