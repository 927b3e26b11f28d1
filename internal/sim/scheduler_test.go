package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerRunsEventsInTimeOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Fatalf("Now() = %v, want 30ms", s.Now())
	}
}

func TestSchedulerTieBreaksBySchedulingOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of order: %v", got)
		}
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	s.After(10*time.Millisecond, func() {
		s.After(5*time.Millisecond, func() {
			fired = append(fired, s.Now())
		})
	})
	s.Run()
	if len(fired) != 1 || fired[0] != 15*time.Millisecond {
		t.Fatalf("nested event fired at %v, want [15ms]", fired)
	}
}

func TestTimerStopPreventsCallback(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	tm := s.After(10*time.Millisecond, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("Stop() = false before firing, want true")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Run()
	if ran {
		t.Fatal("stopped timer still fired")
	}
}

func TestTimerStopAfterFireReturnsFalse(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(time.Millisecond, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop() after firing = true, want false")
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	s := NewScheduler(1)
	s.RunUntil(time.Second)
	if s.Now() != time.Second {
		t.Fatalf("Now() = %v, want 1s", s.Now())
	}
}

func TestRunUntilDoesNotRunLaterEvents(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	s.After(2*time.Second, func() { ran = true })
	s.RunUntil(time.Second)
	if ran {
		t.Fatal("event after horizon ran")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", s.Pending())
	}
	s.RunFor(time.Second)
	if !ran {
		t.Fatal("event at horizon did not run")
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	s := NewScheduler(1)
	s.RunUntil(time.Second)
	var at time.Duration = -1
	s.After(-5*time.Millisecond, func() { at = s.Now() })
	s.Run()
	if at != time.Second {
		t.Fatalf("negative-delay event ran at %v, want 1s", at)
	}
}

func TestPostRunsAsynchronously(t *testing.T) {
	s := NewScheduler(1)
	order := make([]string, 0, 2)
	s.Post(func() {
		s.Post(func() { order = append(order, "inner") })
		order = append(order, "outer")
	})
	s.Run()
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("order = %v, want [outer inner]", order)
	}
}

func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed uint64) []int64 {
		s := NewScheduler(seed)
		var trace []int64
		var tick func()
		tick = func() {
			trace = append(trace, int64(s.Now()), s.Rand().Int64N(1000))
			if s.Now() < 100*time.Millisecond {
				s.After(time.Duration(1+s.Rand().Int64N(10))*time.Millisecond, tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestSchedulerEventCountProperty checks, for arbitrary batches of delays,
// that every scheduled event runs exactly once and the clock ends at the
// maximum delay.
func TestSchedulerEventCountProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		s := NewScheduler(7)
		ran := 0
		var maxAt time.Duration
		for _, d := range delays {
			at := time.Duration(d) * time.Microsecond
			if at > maxAt {
				maxAt = at
			}
			s.After(at, func() { ran++ })
		}
		s.Run()
		if ran != len(delays) {
			return false
		}
		return len(delays) == 0 || s.Now() == maxAt
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStoppedTimersAreSwept(t *testing.T) {
	s := NewScheduler(1)
	// One live long-range timer plus heavy schedule/cancel churn well
	// before its deadline: the heap must not accumulate the dead events.
	ran := false
	s.After(time.Hour, func() { ran = true })
	for i := 0; i < 10000; i++ {
		s.After(time.Minute, func() { t.Fatal("cancelled timer fired") }).Stop()
	}
	if pending := s.Pending(); pending != 1 {
		t.Fatalf("Pending() = %d, want 1 live event", pending)
	}
	if raw := len(s.events); raw > 2 {
		t.Fatalf("heap retains %d entries after churn, want <= 2", raw)
	}
	s.Run()
	if !ran {
		t.Fatal("live timer lost during sweep")
	}
}

func TestSweepPreservesOrderAndDeterminism(t *testing.T) {
	run := func() []int {
		s := NewScheduler(3)
		var got []int
		var timers []Timer
		for i := 0; i < 100; i++ {
			i := i
			timers = append(timers, s.After(time.Duration(i%10)*time.Millisecond, func() {
				got = append(got, i)
			}))
		}
		// Cancel two thirds, forcing sweeps mid-stream.
		for i, tm := range timers {
			if i%3 != 0 {
				tm.Stop()
			}
		}
		s.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != 34 {
		t.Fatalf("ran %d events, want 34 survivors", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sweep broke determinism: %v vs %v", a, b)
		}
	}
	// Survivors must still run in (time, scheduling) order.
	last := -1
	for _, v := range a {
		if v%10 < last%10 && last != -1 {
			// time bucket decreased: order violated
			t.Fatalf("out of time order: %v", a)
		}
		last = v
	}
}

func TestAfterRunnerRunsAndRecycles(t *testing.T) {
	s := NewScheduler(1)
	r := &countRunner{}
	for i := 0; i < 3; i++ {
		s.AfterRunner(time.Duration(i)*time.Millisecond, r)
	}
	s.Run()
	if r.n != 3 {
		t.Fatalf("runner ran %d times, want 3", r.n)
	}
	if len(s.free) == 0 {
		t.Fatal("fired runner events were not recycled")
	}
}

func TestAfterRunnerNestedScheduling(t *testing.T) {
	s := NewScheduler(1)
	r := &chainRunner{s: s, left: 5}
	s.AfterRunner(time.Millisecond, r)
	s.Run()
	if r.fired != 5 {
		t.Fatalf("chained runner fired %d times, want 5", r.fired)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", s.Now())
	}
}

func TestAfterRunnerInterleavesWithClosures(t *testing.T) {
	s := NewScheduler(1)
	var got []string
	s.After(2*time.Millisecond, func() { got = append(got, "fn") })
	s.AfterRunner(time.Millisecond, appendRunner{&got, "early"})
	s.AfterRunner(3*time.Millisecond, appendRunner{&got, "late"})
	s.Run()
	want := []string{"early", "fn", "late"}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

type countRunner struct{ n int }

func (r *countRunner) Run() { r.n++ }

type chainRunner struct {
	s     *Scheduler
	left  int
	fired int
}

func (r *chainRunner) Run() {
	r.fired++
	r.left--
	if r.left > 0 {
		r.s.AfterRunner(time.Millisecond, r)
	}
}

type appendRunner struct {
	got  *[]string
	name string
}

func (r appendRunner) Run() { *r.got = append(*r.got, r.name) }

func TestEventsRunCounter(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.EventsRun() != 5 {
		t.Fatalf("EventsRun() = %d, want 5", s.EventsRun())
	}
}

func TestNextEventAtPeeksAndSkipsStopped(t *testing.T) {
	s := NewScheduler(1)
	if _, ok := s.NextEventAt(); ok {
		t.Fatal("empty scheduler reported a pending event")
	}
	early := s.After(10*time.Millisecond, func() {})
	s.After(30*time.Millisecond, func() {})
	if at, ok := s.NextEventAt(); !ok || at != 10*time.Millisecond {
		t.Fatalf("NextEventAt = %v,%v, want 10ms", at, ok)
	}
	// Peeking must not run or drop anything.
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after peek = %d, want 2", got)
	}
	early.Stop()
	if at, ok := s.NextEventAt(); !ok || at != 30*time.Millisecond {
		t.Fatalf("NextEventAt after Stop = %v,%v, want 30ms", at, ok)
	}
	if s.Now() != 0 {
		t.Fatalf("peek advanced the clock to %v", s.Now())
	}
}

func TestRunUntilQuiesceStopsAtGap(t *testing.T) {
	s := NewScheduler(1)
	var fired []time.Duration
	// A burst of closely spaced events, then a long gap to a straggler.
	for _, d := range []time.Duration{1, 2, 3, 5} {
		d := d * time.Millisecond
		s.After(d, func() { fired = append(fired, d) })
	}
	s.After(500*time.Millisecond, func() { fired = append(fired, 500*time.Millisecond) })
	if !s.RunUntilQuiesce(50*time.Millisecond, time.Second) {
		t.Fatal("RunUntilQuiesce did not report quiescence")
	}
	if len(fired) != 4 {
		t.Fatalf("ran %d events before the gap, want 4: %v", len(fired), fired)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("quiesced at %v, want 5ms (the last burst event)", s.Now())
	}
	// The straggler is still pending for a later run.
	if at, ok := s.NextEventAt(); !ok || at != 500*time.Millisecond {
		t.Fatalf("straggler missing: %v,%v", at, ok)
	}
}

func TestRunUntilQuiesceDeadline(t *testing.T) {
	s := NewScheduler(1)
	var reschedule func()
	n := 0
	reschedule = func() {
		n++
		s.After(10*time.Millisecond, reschedule)
	}
	s.After(10*time.Millisecond, reschedule)
	// A self-rescheduling 10ms timer never leaves a 50ms gap: the deadline
	// must fire, leaving the clock exactly at now+deadline.
	if s.RunUntilQuiesce(50*time.Millisecond, 205*time.Millisecond) {
		t.Fatal("periodic world reported quiescence")
	}
	if s.Now() != 205*time.Millisecond {
		t.Fatalf("deadline left clock at %v, want 205ms", s.Now())
	}
	if n != 20 {
		t.Fatalf("ran %d periodic ticks before deadline, want 20", n)
	}
}

func TestRunUntilQuiesceEmptyWorld(t *testing.T) {
	s := NewScheduler(1)
	s.RunFor(time.Millisecond)
	if !s.RunUntilQuiesce(time.Millisecond, time.Second) {
		t.Fatal("empty world must quiesce immediately")
	}
	if s.Now() != time.Millisecond {
		t.Fatalf("clock moved to %v on an already-quiet world", s.Now())
	}
}

// timerChurn is the retransmission-timer pattern of Reliable, where
// almost every arming is cancelled or moved before it fires: one timer,
// armed, moved, cancelled, and every 64th time the clock advances.
func timerChurn(s *Scheduler) func() {
	i := 0
	tm := s.NewTimer(func() {})
	return func() {
		tm.Reset(time.Second)
		tm.Reset(2 * time.Second)
		tm.Stop()
		if i++; i%64 == 0 {
			s.RunFor(time.Millisecond)
		}
	}
}

// rearmRunner re-arms itself a random delay ahead every time it runs, so
// a population of them keeps the heap at a constant size.
type rearmRunner struct{ s *Scheduler }

func (r *rearmRunner) Run() {
	r.s.AfterRunner(time.Duration(r.s.Rand().IntN(1000))*time.Microsecond, r)
}

// BenchmarkSchedulerTimers measures the heap two ways. churn is re-arm and
// cancel of one timer, the Reliable retransmission pattern; the heap must
// not accumulate dead events (Stop removes its event at once). pop is one
// Step over a few thousand pending events, each of which re-arms itself,
// the shape of a large emulated world: every op is a pop and a push at a
// random depth.
func BenchmarkSchedulerTimers(b *testing.B) {
	b.Run("churn", func(b *testing.B) {
		s := NewScheduler(1)
		churn := timerChurn(s)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			churn()
		}
		if pending := s.Pending(); pending != 0 {
			b.Fatalf("heap retains %d dead events", pending)
		}
	})
	b.Run("pop", func(b *testing.B) {
		const pending = 4096
		s := NewScheduler(1)
		for i := 0; i < pending; i++ {
			(&rearmRunner{s: s}).Run()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		if got := s.Pending(); got != pending {
			b.Fatalf("heap holds %d events, want %d", got, pending)
		}
	})
}

// TestSchedulerTimersAllocBudget pins re-arming and cancelling a timer at
// zero allocations (`make bench-guard`), with Reset and with ResetAt later,
// earlier and in the past, and the dead-event bound with it.
func TestSchedulerTimersAllocBudget(t *testing.T) {
	s := NewScheduler(1)
	s.NewTimer(func() {}).Reset(time.Hour) // company in the heap
	churn := timerChurn(s)
	if avg := testing.AllocsPerRun(1000, churn); avg != 0 {
		t.Fatalf("re-arm+cancel allocates %.2f allocs/op, budget is 0", avg)
	}
	tm := s.NewTimer(func() {})
	churnAt := func() {
		tm.ResetAt(s.Now() + time.Second)
		tm.ResetAt(s.Now() + 2*time.Second)
		tm.ResetAt(s.Now() + time.Millisecond)
		tm.ResetAt(s.Now() - time.Second)
		tm.Stop()
		s.RunFor(time.Millisecond)
	}
	if avg := testing.AllocsPerRun(1000, churnAt); avg != 0 {
		t.Fatalf("ResetAt+cancel allocates %.2f allocs/op, budget is 0", avg)
	}
	if pending := s.Pending(); pending != 1 {
		t.Fatalf("heap holds %d events, want the 1 live timer", pending)
	}
}
