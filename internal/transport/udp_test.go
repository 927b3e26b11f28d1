package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// captureExec queues posted closures without running them, so tests can
// control exactly when (and whether) dispatch happens.
type captureExec struct {
	mu    sync.Mutex
	tasks []func()
}

func (e *captureExec) Post(fn func()) {
	e.mu.Lock()
	e.tasks = append(e.tasks, fn)
	e.mu.Unlock()
}

func (e *captureExec) pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.tasks)
}

func (e *captureExec) runAll() {
	e.mu.Lock()
	tasks := e.tasks
	e.tasks = nil
	e.mu.Unlock()
	for _, fn := range tasks {
		fn()
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestAddPeerReRegistrationDropsStaleSenders covers the copy-on-write
// sender table: when a peer re-registers with new addresses, frames from
// its old address must be dropped as unknown.
func TestAddPeerReRegistrationDropsStaleSenders(t *testing.T) {
	var got atomic.Uint64
	a, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(from wire.NodeID, data []byte) {
		got.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	old, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = old.Close() }()
	if err := a.AddPeer(2, old.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := old.AddPeer(1, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	old.Send(1, 0, []byte("before"))
	if !waitFor(t, 2*time.Second, func() bool { return got.Load() == 1 }) {
		t.Fatalf("frame from registered address not delivered (got %d)", got.Load())
	}

	// Peer 2 moves: re-register with a different address. The old socket's
	// address must be unregistered by the same AddPeer call.
	renumbered, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = renumbered.Close() }()
	if err := renumbered.AddPeer(1, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := a.AddPeer(2, renumbered.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	unknownBefore := a.Stats().RecvUnknown
	old.Send(1, 0, []byte("stale"))
	if !waitFor(t, 2*time.Second, func() bool { return a.Stats().RecvUnknown > unknownBefore }) {
		t.Fatal("frame from stale address was not counted unknown")
	}
	if got.Load() != 1 {
		t.Fatalf("frame from stale address was delivered (got %d)", got.Load())
	}
	// The new address works.
	renumbered.Send(1, 0, []byte("after"))
	if !waitFor(t, 2*time.Second, func() bool { return got.Load() == 2 }) {
		t.Fatalf("frame from re-registered address not delivered (got %d)", got.Load())
	}
}

// TestUDPUnderlayCloseMidBatch covers the teardown contract: a receive
// batch already posted to the executor when Close runs must not reach the
// handler, and done/Close stay idempotent even when racing.
func TestUDPUnderlayCloseMidBatch(t *testing.T) {
	exec := &captureExec{}
	var delivered atomic.Uint64
	a, err := NewUDPUnderlay("127.0.0.1:0", exec, func(wire.NodeID, []byte) {
		delivered.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := a.AddPeer(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.Send(1, 0, []byte("mid-batch"))
	if !waitFor(t, 2*time.Second, func() bool { return exec.pending() > 0 }) {
		t.Fatal("receive batch never posted")
	}
	// Close while the batch sits queued; racing Closes must both return.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = a.Close()
		}()
	}
	wg.Wait()
	// The queued batch runs after Close: buffers are released, the handler
	// is never invoked.
	exec.runAll()
	if delivered.Load() != 0 {
		t.Fatalf("handler invoked %d times after Close", delivered.Load())
	}
	if err := a.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
}

// TestUDPUnderlayLifecycleRace hammers Send, AddPeer, PathCount, and
// Stats from many goroutines while the underlay closes mid-traffic; run
// under -race this covers the lock-free snapshot reads against the
// copy-on-write updates and teardown.
func TestUDPUnderlayLifecycleRace(t *testing.T) {
	a, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := a.AddPeer(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	payload := []byte("race")
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0:
					a.Send(2, uint8(i), payload)
				case 1:
					_ = a.AddPeer(2, b.LocalAddr())
				case 2:
					_ = a.PathCount(2)
				case 3:
					_ = a.Stats()
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatalf("Close during traffic: %v", err)
	}
	close(stop)
	wg.Wait()
	// Post-close operations are harmless no-ops.
	a.Send(2, 0, payload)
	if n := a.PathCount(2); n < 1 {
		t.Fatalf("PathCount after close = %d", n)
	}
}

// TestUDPUnderlayBatchDelivery floods frames (including an empty one)
// through the batched plane and checks the WireStats ledger: everything
// sent is counted, everything delivered matches, and the coalescing ring
// actually batches flushes when many frames share one turn.
func TestUDPUnderlayBatchDelivery(t *testing.T) {
	var delivered atomic.Uint64
	var emptySeen atomic.Uint64
	a, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(from wire.NodeID, data []byte) {
		delivered.Add(1)
		if len(data) == 0 {
			emptySeen.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	exec := &captureExec{}
	b, err := NewUDPUnderlay("127.0.0.1:0", exec, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := a.AddPeer(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	// With a capturing executor the flush does not run until released, so
	// every frame of the "turn" coalesces into one flush.
	const frames = 100
	for i := 0; i < frames-1; i++ {
		b.Send(1, 0, []byte(fmt.Sprintf("frame-%03d", i)))
	}
	b.Send(1, 0, nil) // empty datagrams are legal
	exec.runAll()     // one flush for the whole turn
	if !waitFor(t, 5*time.Second, func() bool { return delivered.Load() == frames }) {
		t.Fatalf("delivered %d of %d", delivered.Load(), frames)
	}
	if emptySeen.Load() != 1 {
		t.Fatalf("empty datagram delivered %d times", emptySeen.Load())
	}
	sent := b.Stats()
	if sent.SendPackets != frames || sent.SendDropped != 0 {
		t.Fatalf("sender stats = %+v", sent)
	}
	if sent.SendBatches != 1 {
		t.Fatalf("coalescing ring flushed %d times for one turn", sent.SendBatches)
	}
	recv := a.Stats()
	if recv.RecvPackets != frames {
		t.Fatalf("receiver counted %d of %d packets", recv.RecvPackets, frames)
	}
	if recv.RecvBatches == 0 || recv.RecvBatches > recv.RecvPackets {
		t.Fatalf("receiver batches = %d for %d packets", recv.RecvBatches, recv.RecvPackets)
	}
	if Plane == "linux-mmsg" && recv.RecvBatches == recv.RecvPackets {
		t.Logf("note: no multi-datagram wakeups observed (load too light to batch)")
	}
}

// TestUDPUnderlaySendRingOverflow checks the bounded coalescing ring:
// with the flush withheld, frames past the cap are dropped and counted
// rather than buffered without bound.
func TestUDPUnderlaySendRingOverflow(t *testing.T) {
	exec := &captureExec{}
	u, err := NewUDPUnderlay("127.0.0.1:0", exec, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = u.Close() }()
	sink, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = sink.Close() }()
	if err := u.AddPeer(2, sink.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < maxPending+10; i++ {
		u.Send(2, 0, []byte("x"))
	}
	if d := u.Stats().SendDropped; d != 10 {
		t.Fatalf("dropped %d frames past the ring cap, want 10", d)
	}
	exec.runAll()
	if sp := u.Stats().SendPackets; sp != maxPending {
		t.Fatalf("flushed %d frames, want %d", sp, maxPending)
	}
}

// TestBatchSyscallAllocBudget holds one kernel crossing each way — a
// sendmmsg flush of eight datagrams (one segmented message where the
// kernel takes UDP_SEGMENT) and the recvmmsg reads that drain them — to
// zero allocations: the netpoller callbacks are bound once per socket and
// report through the reader's and writer's own fields. A second flush
// alternates two destinations, a relay's data and acks, which the Linux
// writer groups by peer in its own scratch: it is held to zero as well.
func TestBatchSyscallAllocBudget(t *testing.T) {
	listen := func() *net.UDPConn {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		// A read that miscounts blocks for good; the deadline turns it
		// into an error.
		if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	rx, rx2, tx := listen(), listen(), listen()
	var readers []*batchReader
	for _, conn := range []*net.UDPConn{rx, rx2} {
		br, err := newBatchReader(conn)
		if err != nil {
			t.Fatal(err)
		}
		readers = append(readers, br)
	}
	bw, err := newBatchWriter(tx)
	if err != nil {
		t.Fatal(err)
	}
	to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	to2 := rx2.LocalAddr().(*net.UDPAddr).AddrPort()
	onePeer := make([]outFrame, 8)
	for i := range onePeer {
		onePeer[i] = outFrame{to: to, buf: &wire.Buf{B: make([]byte, 1200)}}
	}
	twoPeers := make([]outFrame, 16)
	for i := range twoPeers {
		if i%2 == 0 {
			twoPeers[i] = outFrame{to: to, buf: &wire.Buf{B: make([]byte, 120)}}
		} else {
			twoPeers[i] = outFrame{to: to2, buf: &wire.Buf{B: make([]byte, 40)}}
		}
	}
	flush := func(frames []outFrame, per ...int) func() {
		return func() {
			if sent, dropped, _, _ := bw.send(frames); sent != len(frames) || dropped != 0 {
				t.Fatalf("sent %d, dropped %d of %d", sent, dropped, len(frames))
			}
			for i, want := range per {
				for got := 0; got < want; {
					n, err := readers[i].read()
					if err != nil {
						t.Fatal(err)
					}
					got += n
				}
			}
		}
	}
	for _, tc := range []struct {
		name  string
		batch func()
	}{
		{"one peer", flush(onePeer, len(onePeer))},
		{"two interleaved peers", flush(twoPeers, len(twoPeers)/2, len(twoPeers)/2)},
	} {
		tc.batch()
		if allocs := testing.AllocsPerRun(100, tc.batch); allocs != 0 {
			t.Fatalf("%s: one flush and the reads that drain it allocate %.2f objects, budget is 0", tc.name, allocs)
		}
	}
}
