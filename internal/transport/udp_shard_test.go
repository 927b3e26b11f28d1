package transport

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// mustAddrPort parses an underlay's LocalAddr for flow-hash computations.
func mustAddrPort(t *testing.T, s string) netip.AddrPort {
	t.Helper()
	ap, err := netip.ParseAddrPort(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return canonAddrPort(ap)
}

// TestShardedCloseMidBatch extends the close-mid-batch teardown contract
// to N shards: a drain already doorbelled onto a shard's executor when
// Close runs must release its frames without invoking the handler, on
// every shard, and racing Closes must both return.
func TestShardedCloseMidBatch(t *testing.T) {
	const n = 4
	execs := make([]sim.Executor, n)
	caps := make([]*captureExec, n)
	for i := range execs {
		caps[i] = &captureExec{}
		execs[i] = caps[i]
	}
	var delivered atomic.Uint64
	rx, err := NewShardedUDPUnderlay("127.0.0.1:0", execs, func(int, wire.NodeID, []byte) {
		delivered.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Close() }()
	// A peer homed on the last shard: the doorbell must land on that
	// shard's executor whatever socket the frames arrive on.
	if err := rx.AddPeer(wire.HomedID(2, n-1, n), tx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddPeer(1, rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		tx.Send(1, 0, []byte("mid-batch"))
	}
	if !waitFor(t, 2*time.Second, func() bool { return caps[n-1].pending() > 0 }) {
		t.Fatal("drain never doorbelled onto the home shard")
	}
	for i := 0; i < n-1; i++ {
		if caps[i].pending() != 0 {
			t.Fatalf("shard %d received a post for a peer homed on shard %d", i, n-1)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = rx.Close()
		}()
	}
	wg.Wait()
	// The queued drains run after Close on every shard: buffers are
	// released, the handler is never invoked.
	for _, c := range caps {
		c.runAll()
	}
	if delivered.Load() != 0 {
		t.Fatalf("handler invoked %d times after Close", delivered.Load())
	}
	if err := rx.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
}

// TestShardedPerFlowOrdering is the flow-partition property test: under a
// randomized placement of peers on home shards, every flow's frames must
// arrive in send order (a flow never spans two shards), every frame must
// be delivered on its sender's home, and per-shard RecvDelivered must
// account for every frame.
func TestShardedPerFlowOrdering(t *testing.T) {
	for _, n := range []int{2, 4} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", n, seed), func(t *testing.T) {
				testPerFlowOrdering(t, n, seed)
			})
		}
	}
}

func testPerFlowOrdering(t *testing.T, nshards int, seed int64) {
	// The aggregate in-flight burst (flows × window datagrams) must stay
	// under the loopback socket receive buffer — UDP sheds the excess and
	// the credit loop would stall on the lost frames.
	const (
		flows    = 12
		perFlow  = 200
		window   = 16
		deadline = 10 * time.Second
	)
	loops := sim.NewShardedLoop(nshards)
	defer loops.Close()

	// Flow f is peer ids[f], homed on shard homes[f]; flowOf is read-only
	// once traffic starts.
	rng := rand.New(rand.NewSource(seed))
	var ids [flows]wire.NodeID
	var homes [flows]int
	flowOf := make(map[wire.NodeID]int, flows)
	next := make([]wire.NodeID, nshards)
	for f := range ids {
		h := rng.Intn(nshards)
		homes[f], ids[f] = h, wire.HomedID(max(next[h], 1), h, nshards)
		next[h] = ids[f] + 1
		flowOf[ids[f]] = f
	}

	var counts [flows]atomic.Uint64
	var lastSeq [flows]uint64 // written only by the flow's shard loop
	var violations, misplaced atomic.Uint64
	rx, err := NewShardedUDPUnderlay("127.0.0.1:0", loops.Executors(), func(shard int, from wire.NodeID, data []byte) {
		f := flowOf[from]
		if shard != homes[f] {
			misplaced.Add(1)
		}
		seq := binary.LittleEndian.Uint64(data)
		if seq != lastSeq[f]+1 {
			violations.Add(1)
		}
		lastSeq[f] = seq
		counts[f].Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rx.Close() }()

	txs := make([]*UDPUnderlay, flows)
	for f := 0; f < flows; f++ {
		tx, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tx.Close() }()
		txs[f] = tx
		if err := rx.AddPeer(ids[f], tx.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if err := tx.AddPeer(100, rx.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}

	// One producer per flow, pumping seq-stamped frames in credit windows
	// so the loopback receive buffer never overflows.
	errs := make(chan error, flows)
	var wg sync.WaitGroup
	for f := 0; f < flows; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			var payload [16]byte
			sent := 0
			for sent < perFlow {
				burst := window
				if burst > perFlow-sent {
					burst = perFlow - sent
				}
				for i := 0; i < burst; i++ {
					binary.LittleEndian.PutUint64(payload[:], uint64(sent+i+1))
					txs[f].Send(100, 0, payload[:])
				}
				sent += burst
				limit := time.Now().Add(deadline)
				for counts[f].Load() < uint64(sent) {
					if time.Now().After(limit) {
						errs <- fmt.Errorf("flow %d stalled: %d of %d delivered", f, counts[f].Load(), sent)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d per-flow ordering violations across %d flows", v, flows)
	}
	if m := misplaced.Load(); m != 0 {
		t.Fatalf("%d frames delivered off their sender's home shard", m)
	}
	// The delivery ledger: aggregate and per-shard placement.
	total := uint64(flows * perFlow)
	if got := rx.Stats().RecvDelivered; got != total {
		t.Fatalf("aggregate RecvDelivered = %d, want %d", got, total)
	}
	want := make([]uint64, nshards)
	for _, h := range homes {
		want[h] += perFlow
	}
	for s := 0; s < nshards; s++ {
		if got := rx.ShardStats(s).RecvDelivered; got != want[s] {
			t.Fatalf("shard %d delivered %d, want exactly %d (its homed flows)", s, got, want[s])
		}
	}
}

// TestShardedLifecycleRace hammers Send, AddPeer, Stats, and ShardStats
// from many goroutines with live inbound traffic while the sharded
// underlay closes mid-flight; the sender's address is re-registered under
// peer ids homed on every shard in turn, so its frames move between loops.
// Under -race this covers the copy-on-write peer table against the
// lock-free readers and the N-shard quiesce path.
func TestShardedLifecycleRace(t *testing.T) {
	const n = 4
	loops := sim.NewShardedLoop(n)
	defer loops.Close()
	rx, err := NewShardedUDPUnderlay("127.0.0.1:0", loops.Executors(), func(int, wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peer.Close() }()
	if err := rx.AddPeer(2, peer.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := peer.AddPeer(1, rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	payload := []byte("race")
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 6 {
				case 0:
					rx.Send(2, uint8(i), payload)
				case 1:
					peer.Send(1, 0, payload) // inbound traffic across shards
				case 2:
					_ = rx.AddPeer(2, peer.LocalAddr())
				case 3:
					_ = rx.AddPeer(wire.HomedID(3, i%n, n), peer.LocalAddr())
				case 4:
					_ = rx.Stats()
				case 5:
					_ = rx.ShardStats(i % n)
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	if err := rx.Close(); err != nil {
		t.Fatalf("Close during traffic: %v", err)
	}
	close(stop)
	wg.Wait()
	// Post-close operations are harmless no-ops.
	rx.Send(2, 0, payload)
	if n := rx.PathCount(2); n < 1 {
		t.Fatalf("PathCount after close = %d", n)
	}
}

// TestShardSteeringPlacement checks the ownership rule end to end on
// whichever plane is compiled: a peer homed on shard 2 must have every
// frame delivered on shard 2's executor, arrival counters must accrue to
// the arrival socket's shard, and the handoff counter must equal the
// frames that crossed shards.
func TestShardSteeringPlacement(t *testing.T) {
	const n = 4
	const frames = 50
	var delivered atomic.Uint64
	execs := make([]sim.Executor, n)
	for i := range execs {
		execs[i] = sim.Inline{}
	}
	rx, err := NewShardedUDPUnderlay("127.0.0.1:0", execs, func(int, wire.NodeID, []byte) {
		delivered.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rx.Close() }()
	tx, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tx.Close() }()
	const home = 2
	if err := rx.AddPeer(wire.HomedID(2, home, n), tx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddPeer(1, rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		tx.Send(1, 0, []byte("steer"))
		// Light pacing: loopback is lossless below socket-buffer bursts.
		if i%16 == 15 {
			waitFor(t, time.Second, func() bool { return delivered.Load() >= uint64(i) })
		}
	}
	if !waitFor(t, 5*time.Second, func() bool { return delivered.Load() == frames }) {
		t.Fatalf("delivered %d of %d", delivered.Load(), frames)
	}
	if got := rx.ShardStats(home).RecvDelivered; got != frames {
		t.Fatalf("home shard delivered %d of %d", got, frames)
	}
	// Arrival accounting: the single-socket plane drains everything on
	// shard 0's socket; the steered Linux plane on the sport-mod-N socket.
	arrival := 0
	if len(rx.conns) == n {
		if !rx.steered {
			t.Skipf("kernel hash steering: arrival shard not predictable")
		}
		arrival = int(mustAddrPort(t, tx.LocalAddr()).Port()) % n
	}
	if got := rx.ShardStats(arrival).RecvPackets; got != frames {
		t.Fatalf("arrival shard %d counted %d of %d packets", arrival, got, frames)
	}
	wantHandoffs := uint64(frames)
	if arrival == home {
		wantHandoffs = 0
	}
	if got := rx.Stats().Handoffs; got != wantHandoffs {
		t.Fatalf("Handoffs = %d, want %d (arrival shard %d, home %d)", got, wantHandoffs, arrival, home)
	}
}

// TestReuseportSteeringBalance checks the Linux fast path's deterministic
// cBPF program: with steering attached, a flow's frames arrive on exactly
// the shard its source port hashes to, and a peer homed there has them
// delivered by that shard too, with zero cross-shard handoffs.
func TestReuseportSteeringBalance(t *testing.T) {
	if Plane != "linux-mmsg" {
		t.Skipf("reuseport steering is a Linux fast-path feature (plane %s)", Plane)
	}
	const n = 4
	const frames = 40
	var delivered atomic.Uint64
	execs := make([]sim.Executor, n)
	for i := range execs {
		execs[i] = sim.Inline{}
	}
	rx, err := NewShardedUDPUnderlay("127.0.0.1:0", execs, func(int, wire.NodeID, []byte) {
		delivered.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = rx.Close() }()
	if !rx.SteeredRx() {
		t.Skip("steering program not attachable in this environment")
	}
	const flows = 6
	want := make([]uint64, n)
	next := make([]wire.NodeID, n)
	var sent uint64
	for f := 0; f < flows; f++ {
		tx, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = tx.Close() }()
		shard := int(mustAddrPort(t, tx.LocalAddr()).Port()) % n
		id := wire.HomedID(max(next[shard], 1), shard, n)
		next[shard] = id + 1
		if err := rx.AddPeer(id, tx.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if err := tx.AddPeer(100, rx.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		want[shard] += frames
		for i := 0; i < frames; i++ {
			tx.Send(100, 0, []byte("balance"))
		}
		sent += frames
		if !waitFor(t, 5*time.Second, func() bool { return delivered.Load() == sent }) {
			t.Fatalf("flow %d: delivered %d of %d", f, delivered.Load(), sent)
		}
	}
	for s := 0; s < n; s++ {
		st := rx.ShardStats(s)
		if st.RecvPackets != want[s] || st.RecvDelivered != want[s] {
			t.Fatalf("shard %d: packets=%d delivered=%d, want %d (sport mod %d placement)",
				s, st.RecvPackets, st.RecvDelivered, want[s], n)
		}
	}
	if h := rx.Stats().Handoffs; h != 0 {
		t.Fatalf("steered flows homed on their arrival shard crossed shards %d times", h)
	}
}
