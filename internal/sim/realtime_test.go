package sim

import (
	"sync"
	"testing"
	"time"
)

func TestLoopRunsPostedClosuresInOrder(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	var mu sync.Mutex
	var got []int
	done := make(chan struct{})
	for i := 0; i < 100; i++ {
		i := i
		l.Post(func() {
			mu.Lock()
			got = append(got, i)
			mu.Unlock()
			if i == 99 {
				close(done)
			}
		})
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	for i, v := range got {
		if v != i {
			t.Fatalf("closures ran out of order at %d: %v", i, got[:i+1])
		}
	}
}

func TestLoopCloseDrainsQueue(t *testing.T) {
	l := NewLoop()
	ran := 0
	for i := 0; i < 10; i++ {
		l.Post(func() { ran++ })
	}
	l.Close()
	if ran != 10 {
		t.Fatalf("ran = %d, want 10", ran)
	}
}

// TestLoopPostAfterCloseIsDropped posts to a closed loop: Close waited for
// the loop goroutine to exit, so a closure the queue refuses can never run.
func TestLoopPostAfterCloseIsDropped(t *testing.T) {
	l := NewLoop()
	l.Close()
	l.Post(func() { t.Error("closure ran after Close") })
	if l.TryPost(func() { t.Error("closure ran after Close") }) {
		t.Fatal("TryPost on a closed loop = true")
	}
	if len(l.queue) != 0 {
		t.Fatalf("closed loop queued %d closures", len(l.queue))
	}
}

// waitLimit bounds every wait in this package's real-time tests. It is a
// timeout only: no assertion depends on how long anything took.
const waitLimit = 10 * time.Second

func TestRealtimeClockFiresTimer(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := NewRealtimeClock(l)
	done := make(chan time.Duration, 1)
	var due time.Duration
	l.Post(func() {
		tm := c.After(time.Millisecond, func() { done <- c.Now() })
		due = tm.(*event).at
	})
	select {
	case at := <-done:
		if at < due {
			t.Fatalf("timer armed for %v fired at %v", due, at)
		}
	case <-time.After(waitLimit):
		t.Fatal("timer never fired")
	}
}

// TestRealtimeClockStopPreventsCallback stops a timer, then waits for a
// witness armed after it for a deadline no earlier: timers fire in deadline
// order, so had the stopped one still been queued it would have run first.
func TestRealtimeClockStopPreventsCallback(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := NewRealtimeClock(l)
	var fired []string
	witnessed := make(chan struct{})
	l.Post(func() {
		tm := c.After(time.Millisecond, func() { fired = append(fired, "stopped") })
		if !tm.Stop() {
			t.Error("Stop() = false on pending timer")
		}
		c.After(time.Millisecond, func() {
			fired = append(fired, "witness")
			close(witnessed)
		})
	})
	select {
	case <-witnessed:
	case <-time.After(waitLimit):
		t.Fatal("witness timer never fired")
	}
	done := make(chan struct{})
	l.Post(func() {
		if len(fired) != 1 {
			t.Errorf("fired %v, want only the witness", fired)
		}
		close(done)
	})
	<-done
}

func TestRealtimeClockNowAdvances(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := NewRealtimeClock(l)
	a := c.Now()
	for limit := time.Now().Add(waitLimit); c.Now() <= a; {
		if time.Now().After(limit) {
			t.Fatalf("Now() stayed at %v", a)
		}
	}
}

// elapsedAtLeast reads now, spins until the monotonic clock has moved, and
// reads now again: a clock running at real speed advanced by at least the
// monotonic time measured strictly between its two readings.
func elapsedAtLeast(t *testing.T, now func() time.Duration) (advanced, between time.Duration) {
	t.Helper()
	before := now()
	t0 := time.Now()
	t1 := t0
	for limit := t0.Add(waitLimit); t1.Sub(t0) <= 0; t1 = time.Now() {
		if t1.After(limit) {
			t.Fatal("the monotonic clock did not move")
		}
	}
	return now() - before, t1.Sub(t0)
}

// TestRealtimeClockNowMonotonicUnderEpochSkew simulates the wall clock
// being stepped backwards under the clock (an NTP adjustment): the epoch is
// moved into the future with its monotonic reading stripped, so raw
// time.Since would report a large negative elapsed time. Now must clamp
// instead of running backwards.
func TestRealtimeClockNowMonotonicUnderEpochSkew(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := NewRealtimeClock(l)
	before := c.Now()
	if before < 0 {
		t.Fatalf("Now() = %v before skew, want >= 0", before)
	}
	// Round(0) strips the monotonic reading; the future epoch makes the
	// wall-clock fallback negative.
	c.epoch = time.Now().Add(time.Hour).Round(0)
	after := c.Now()
	if after < before {
		t.Fatalf("Now() ran backwards across epoch skew: %v then %v", before, after)
	}
	// Subsequent readings must stay non-decreasing too.
	prev := after
	for i := 0; i < 1000; i++ {
		cur := c.Now()
		if cur < prev {
			t.Fatalf("Now() ran backwards: %v then %v", prev, cur)
		}
		prev = cur
	}
}

// TestRealtimeClockNowNeverNegative covers a freshly created clock whose
// epoch lost its monotonic reading and sits ahead of the wall clock: the
// first reading must already be clamped.
func TestRealtimeClockNowNeverNegative(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := &RealtimeClock{exec: l, epoch: time.Now().Add(time.Minute).Round(0)}
	if d := c.Now(); d < 0 {
		t.Fatalf("Now() = %v, want >= 0", d)
	}
}

// TestRealtimeClockAdvancesUnderEpochSkew pins the monotonic-anchor fix:
// when the wall clock steps (simulated by skewing the epoch far into the
// future with its monotonic reading stripped), Now must keep advancing at
// real speed — not merely hold still at the clamp until the wall catches
// up, which would stall every timer-derived deadline for the duration of
// the step.
func TestRealtimeClockAdvancesUnderEpochSkew(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := NewRealtimeClock(l)
	c.epoch = time.Now().Add(time.Hour).Round(0)
	if advanced, between := elapsedAtLeast(t, c.Now); advanced < between {
		t.Fatalf("Now() advanced %v while %v passed under epoch skew; clock frozen", advanced, between)
	}
}

// TestRealtimeClockLiteralEpochAdvances covers the struct-literal clock
// with a wall-only future epoch: the first reading clamps to zero, and
// subsequent readings advance monotonically from there.
func TestRealtimeClockLiteralEpochAdvances(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := &RealtimeClock{exec: l, epoch: time.Now().Add(time.Minute).Round(0)}
	if first := c.Now(); first < 0 {
		t.Fatalf("Now() = %v, want >= 0", first)
	}
	if advanced, between := elapsedAtLeast(t, c.Now); advanced < between {
		t.Fatalf("Now() advanced %v while %v passed, want real progress", advanced, between)
	}
}

// TestRealtimeClockNowRace reads Now from four goroutines on a
// struct-literal clock, which anchors itself on the first reading, while
// the executor arms and fires a timer that re-arms itself: a reading takes
// no lock, so -race checks how the anchor is published, and each
// goroutine's readings must never decrease.
func TestRealtimeClockNowRace(t *testing.T) {
	l := NewLoop()
	defer l.Close()
	c := &RealtimeClock{exec: l, epoch: time.Now()}
	stop := make(chan struct{})
	l.Post(func() {
		var tm Timer
		tm = c.NewTimer(func() {
			select {
			case <-stop:
			default:
				tm.Reset(time.Microsecond)
			}
		})
		tm.Reset(0)
	})
	const readers, reads = 4, 5000
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := c.Now()
			for i := 0; i < reads; i++ {
				now := c.Now()
				if now < prev {
					t.Errorf("Now() ran backwards: %v then %v", prev, now)
					return
				}
				prev = now
			}
		}()
	}
	wg.Wait()
	close(stop)
}
