package sim

import (
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSPSCFIFO covers the ring's single-threaded contract: FIFO order,
// wraparound past the physical capacity, bounded Push, and empty Pop.
func TestSPSCFIFO(t *testing.T) {
	r := NewSPSC[int](4)
	if r.Cap() != 4 {
		t.Fatalf("Cap() = %d, want 4", r.Cap())
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on empty ring succeeded")
	}
	// Several laps around the ring so the index masking is exercised.
	next := 0
	for lap := 0; lap < 5; lap++ {
		for i := 0; i < r.Cap(); i++ {
			if !r.Push(lap*10 + i) {
				t.Fatalf("Push failed with %d queued", r.Len())
			}
		}
		if r.Push(999) {
			t.Fatal("Push succeeded on a full ring")
		}
		if r.Len() != r.Cap() || r.Empty() {
			t.Fatalf("Len=%d Empty=%v on a full ring", r.Len(), r.Empty())
		}
		for i := 0; i < r.Cap(); i++ {
			v, ok := r.Pop()
			if !ok || v != lap*10+i {
				t.Fatalf("Pop = %d,%v, want %d", v, ok, lap*10+i)
			}
			next++
		}
		if !r.Empty() {
			t.Fatalf("ring not empty after draining lap %d", lap)
		}
	}
}

// TestSPSCCapacityRounding checks the power-of-two rounding and the
// minimum capacity.
func TestSPSCCapacityRounding(t *testing.T) {
	for _, c := range []struct{ ask, want int }{{0, 2}, {1, 2}, {2, 2}, {3, 4}, {5, 8}, {1024, 1024}, {1025, 2048}} {
		if got := NewSPSC[byte](c.ask).Cap(); got != c.want {
			t.Fatalf("NewSPSC(%d).Cap() = %d, want %d", c.ask, got, c.want)
		}
	}
}

// TestSPSCPopZeroesSlot checks that Pop clears the vacated slot so popped
// pointers do not pin their referents against the GC.
func TestSPSCPopZeroesSlot(t *testing.T) {
	r := NewSPSC[*int](2)
	v := new(int)
	r.Push(v)
	r.Pop()
	for i := range r.buf {
		if r.buf[i] != nil {
			t.Fatalf("slot %d still holds a pointer after Pop", i)
		}
	}
}

// TestSPSCConcurrent streams values through the ring with one producer
// and one consumer goroutine; under -race this validates the index
// publication protocol (element visible before index advance).
func TestSPSCConcurrent(t *testing.T) {
	const n = 100000
	r := NewSPSC[int](64)
	var got atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; {
			if r.Push(i) {
				i++
			} else {
				runtime.Gosched() // full: let the consumer run on 1 P
			}
		}
	}()
	go func() {
		defer wg.Done()
		want := 0
		for want < n {
			v, ok := r.Pop()
			if !ok {
				runtime.Gosched() // empty: let the producer run on 1 P
				continue
			}
			if v != want {
				t.Errorf("popped %d, want %d", v, want)
				return
			}
			want++
			got.Add(1)
		}
	}()
	wg.Wait()
	if got.Load() != n {
		t.Fatalf("consumed %d of %d", got.Load(), n)
	}
}

// postLog is a RunnerExecutor that keeps what was posted for the test to
// run by hand.
type postLog struct{ runners []Runner }

func (p *postLog) Post(fn func())      { p.PostRunner(RunnerFunc(fn)) }
func (p *postLog) PostRunner(r Runner) { p.runners = append(p.runners, r) }

// next runs the oldest posted runner.
func (p *postLog) next(t *testing.T) {
	t.Helper()
	if len(p.runners) == 0 {
		t.Fatal("no drain posted")
	}
	r := p.runners[0]
	p.runners = p.runners[1:]
	r.Run()
}

// TestHandoff covers the hand-off's contract: FIFO order, one drain posted
// per empty→non-empty transition however many pushes and rings follow, a
// drain that stops at its quota and re-posts itself, and Drain emptying
// the ring on the caller. Its last part streams values from a producer
// goroutine to a real loop; under -race that checks the doorbell's
// publication (nothing pushed is left behind by a drain that found the
// bell set).
func TestHandoff(t *testing.T) {
	var exec postLog
	var got []int
	h := NewHandoff(8, 3, &exec, func(v *int) { got = append(got, *v) })
	for i := 1; i <= 5; i++ {
		h.Push(i)
		h.Ring()
	}
	if len(exec.runners) != 1 {
		t.Fatalf("five pushes and rings posted %d drains, want 1", len(exec.runners))
	}
	exec.next(t)
	if !slices.Equal(got, []int{1, 2, 3}) || len(exec.runners) != 1 {
		t.Fatalf("first drain ran %v and posted %d drains; want the quota [1 2 3] and one re-post", got, len(exec.runners))
	}
	exec.next(t)
	if !slices.Equal(got, []int{1, 2, 3, 4, 5}) || len(exec.runners) != 0 {
		t.Fatalf("second drain ran up to %v and posted %d drains; want [1 … 5] and none", got, len(exec.runners))
	}
	h.Push(6)
	h.Ring()
	if len(exec.runners) != 1 {
		t.Fatalf("a push into the emptied ring posted %d drains, want 1", len(exec.runners))
	}
	for i := 7; i <= 11; i++ {
		h.Push(i)
	}
	h.Drain()
	if !h.Empty() || !slices.Equal(got[5:], []int{6, 7, 8, 9, 10, 11}) {
		t.Fatalf("Drain left %d queued and ran %v, want all of [6 … 11]", h.Len(), got[5:])
	}
	exec.next(t) // the drain queued before Drain finds nothing to do
	if len(got) != 11 || len(exec.runners) != 0 {
		t.Fatalf("a drain of an empty ring ran %d values and posted %d drains", len(got)-11, len(exec.runners))
	}

	loop := NewLoop()
	defer loop.Close()
	const total = 20000
	seen, done := 0, make(chan struct{})
	stream := NewHandoff(64, 16, loop, func(v *int) {
		if *v != seen {
			t.Errorf("drain ran %d, want %d", *v, seen)
		}
		if seen++; seen == total {
			close(done)
		}
	})
	for i := 0; i < total; {
		if stream.Push(i) {
			i++
		} else {
			runtime.Gosched() // full: let the loop drain
		}
		stream.Ring()
	}
	<-done
}

// TestHandoffTurnEnd holds OnTurnEnd to one call per turn, after that
// turn's last element: a five-element burst at quota 3 is two turns, and
// Drain, which runs turns on the caller, ends each of its own.
func TestHandoffTurnEnd(t *testing.T) {
	var exec postLog
	var log []string
	h := NewHandoff(8, 3, &exec, func(v *int) { log = append(log, strconv.Itoa(*v)) })
	h.OnTurnEnd(func() { log = append(log, "end") })
	for i := 1; i <= 5; i++ {
		h.Push(i)
		h.Ring()
	}
	exec.next(t)
	exec.next(t)
	want := []string{"1", "2", "3", "end", "4", "5", "end"}
	if !slices.Equal(log, want) {
		t.Fatalf("two turns ran %v, want %v", log, want)
	}
	log = nil
	for i := 6; i <= 9; i++ {
		h.Push(i)
	}
	h.Drain()
	want = []string{"6", "7", "8", "end", "9", "end"}
	if !slices.Equal(log, want) {
		t.Fatalf("Drain ran %v, want %v", log, want)
	}
}

// TestShardedLoopDistribution checks that each shard is a live
// independent loop, that PostTo lands work on the addressed shard, and
// that the control-shard delegation (Post/PostRunner → shard 0) holds.
func TestShardedLoopDistribution(t *testing.T) {
	const n = 4
	s := NewShardedLoop(n)
	defer s.Close()
	if s.NumShards() != n {
		t.Fatalf("NumShards = %d, want %d", s.NumShards(), n)
	}
	// Every shard must run its own posted work; shards must be distinct
	// loops (work posted to shard i never runs shard j's closures).
	var ran [n]atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		i := i
		s.PostTo(i, func() {
			ran[i].Add(1)
			wg.Done()
		})
	}
	wg.Wait()
	for i := range ran {
		if ran[i].Load() != 1 {
			t.Fatalf("shard %d ran %d closures, want 1", i, ran[i].Load())
		}
	}
	// Post and PostRunner delegate to shard 0: FIFO order with other
	// control-shard work must hold.
	var order []int
	var mu sync.Mutex
	wg.Add(3)
	record := func(v int) {
		mu.Lock()
		order = append(order, v)
		mu.Unlock()
		wg.Done()
	}
	s.Post(func() { record(1) })
	s.PostRunner(RunnerFunc(func() { record(2) }))
	s.Shard(0).Post(func() { record(3) })
	wg.Wait()
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("control-shard order = %v, want [1 2 3]", order)
	}
}

// TestShardedLoopDefault checks the n<=0 default and the documented cap.
func TestShardedLoopDefault(t *testing.T) {
	s := NewShardedLoop(0)
	defer s.Close()
	if got, want := s.NumShards(), DefaultShards(); got != want {
		t.Fatalf("default shards = %d, want %d", got, want)
	}
	if d := DefaultShards(); d < 1 || d > 8 {
		t.Fatalf("DefaultShards() = %d, outside [1,8]", d)
	}
}

// TestShardedLoopClose checks that Close drains queued work first and
// that posting after Close is a harmless no-op.
func TestShardedLoopClose(t *testing.T) {
	s := NewShardedLoop(2)
	var ran atomic.Uint64
	for i := 0; i < 2; i++ {
		s.PostTo(i, func() { ran.Add(1) })
	}
	s.Close()
	if ran.Load() != 2 {
		t.Fatalf("Close dropped queued work: ran %d of 2", ran.Load())
	}
	s.Post(func() { ran.Add(1) }) // dropped, must not panic
	s.Close()                     // idempotent
	if ran.Load() != 2 {
		t.Fatalf("post after Close ran")
	}
}
