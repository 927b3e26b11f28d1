package sim

import "runtime"

// ShardedLoop runs N independent real-time Loops, one per data-plane
// shard. Each shard keeps the single-threaded execution model protocol
// code is written against — a flow's work always runs on its shard's
// loop — while distinct shards run on distinct goroutines and therefore
// on distinct cores. Shard 0 is the control shard by convention: the
// overlay node's protocol state machines live there, and the ShardedLoop
// itself implements Executor/RunnerExecutor by delegating to it, so code
// written for one Loop (clocks, session managers, client dispatch) works
// unchanged against a ShardedLoop.
type ShardedLoop struct {
	loops []*Loop
}

var _ RunnerExecutor = (*ShardedLoop)(nil)

// DefaultShards is the shard count used when a configuration leaves it
// unset: one shard per available core, capped at 8 — past that the
// kernel-crossing work a daemon shards (recvmmsg, sendmmsg, frame
// copies) stops being the bottleneck.
func DefaultShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewShardedLoop starts n loops; n <= 0 means DefaultShards().
func NewShardedLoop(n int) *ShardedLoop {
	if n <= 0 {
		n = DefaultShards()
	}
	s := &ShardedLoop{loops: make([]*Loop, n)}
	for i := range s.loops {
		s.loops[i] = NewLoop()
	}
	return s
}

// NumShards returns the shard count.
func (s *ShardedLoop) NumShards() int { return len(s.loops) }

// Shard returns shard i's loop.
func (s *ShardedLoop) Shard(i int) *Loop { return s.loops[i] }

// Executors returns the per-shard executors in shard order (a fresh
// slice; the caller may keep it).
func (s *ShardedLoop) Executors() []Executor {
	out := make([]Executor, len(s.loops))
	for i, l := range s.loops {
		out[i] = l
	}
	return out
}

// Post enqueues fn on the control shard (shard 0).
func (s *ShardedLoop) Post(fn func()) { s.loops[0].Post(fn) }

// PostRunner enqueues r on the control shard (shard 0).
func (s *ShardedLoop) PostRunner(r Runner) { s.loops[0].PostRunner(r) }

// PostTo enqueues fn on shard i.
func (s *ShardedLoop) PostTo(i int, fn func()) { s.loops[i].Post(fn) }

// TryPostTo is PostTo that reports whether fn was enqueued (false once
// shard i's loop has closed).
func (s *ShardedLoop) TryPostTo(i int, fn func()) bool { return s.loops[i].TryPost(fn) }

// Close stops every shard loop after its already-queued work runs, and
// waits for all of them to exit.
func (s *ShardedLoop) Close() {
	for _, l := range s.loops {
		l.Close()
	}
}
