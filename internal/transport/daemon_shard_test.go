package transport

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"sonet/internal/metrics"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// testShards returns the DaemonConfig.Shards value for suite-constructed
// daemons: 0 (auto) unless SONET_DAEMON_SHARDS overrides it — make
// test-race pins the suite at 4 so the sharded protocol path runs under
// the race detector.
func testShards() int {
	if v := os.Getenv("SONET_DAEMON_SHARDS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return 0
}

func TestDaemonHomesPeersByHash(t *testing.T) {
	const shards = 4
	links := []LinkDef{{A: 1, B: 2, LatencyMs: 1}, {A: 2, B: 3, LatencyMs: 1}}
	d, err := NewDaemon(DaemonConfig{
		ID: 2, BindUDP: "127.0.0.1:0", Links: links,
		HelloIntervalMs: 3600000, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if d.Shards() != shards {
		t.Fatalf("daemon runs %d shards, want %d", d.Shards(), shards)
	}
	if d.DataPlane() == nil {
		t.Fatal("sharded daemon has no protocol data plane")
	}
	if err := d.AddPeer(1, "127.0.0.1:9001"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPeer(3, "127.0.0.1:9003"); err != nil {
		t.Fatal(err)
	}
	for _, id := range []wire.NodeID{1, 3} {
		want := int32(wire.HomeShard(id, shards))
		if got := d.udp.table.Load().peers[id].home; got != want {
			t.Errorf("peer %d homed on shard %d, want %d", id, got, want)
		}
	}
	// Re-registering addresses (address exchange repeats out of band) must
	// not move a live flow off its home.
	if err := d.udp.AddPeer(1, "127.0.0.1:9011"); err != nil {
		t.Fatal(err)
	}
	want := int32(wire.HomeShard(1, shards))
	if got := d.udp.table.Load().peers[1].home; got != want {
		t.Errorf("re-AddPeer moved peer 1 to shard %d, want home %d", got, want)
	}
}

// TestDaemonSteeredArrivalMatchesHome drives data frames at a sharded
// daemon from a sender whose UDP source port lands, under the reuseport
// steering program, on the sending peer's home shard — and asserts the
// whole protocol path ran there: deliveries accrue to the home shard's
// ledger and no frame crossed shards (Handoffs stays zero).
func TestDaemonSteeredArrivalMatchesHome(t *testing.T) {
	const shards = 4
	var src wire.NodeID
	for id := wire.NodeID(1); id < 100; id++ {
		if id != 2 && wire.HomeShard(id, shards) != 0 {
			src = id
			break
		}
	}
	home := wire.HomeShard(src, shards)
	links := []LinkDef{{A: src, B: 2, LatencyMs: 1}}
	d, err := NewDaemon(DaemonConfig{
		ID: 2, BindUDP: "127.0.0.1:0", Links: links,
		HelloIntervalMs: 3600000, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if !d.udp.SteeredRx() {
		t.Skip("reuseport steering program not attached; arrival shard is not deterministic")
	}

	// Hunt for a driver socket whose port residue equals the home shard,
	// parking mismatched binds so the allocator cannot hand them back.
	var drv *UDPUnderlay
	var parked []*UDPUnderlay
	defer func() {
		for _, p := range parked {
			_ = p.Close()
		}
	}()
	for i := 0; i < 1024 && drv == nil; i++ {
		u, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		_, portStr, err := net.SplitHostPort(u.LocalAddr())
		if err != nil {
			t.Fatal(err)
		}
		port, _ := strconv.Atoi(portStr)
		if port%shards == home {
			drv = u
		} else {
			parked = append(parked, u)
		}
	}
	if drv == nil {
		t.Skip("could not bind a residue-matching source port")
	}
	defer func() { _ = drv.Close() }()
	if err := drv.AddPeer(2, d.UDPAddr()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPeer(src, drv.LocalAddr()); err != nil {
		t.Fatal(err)
	}

	// Unicast data frames addressed to the daemon itself: the home shard
	// decodes, runs the link protocol, routes against the snapshot, and
	// clones the delivery to the control shard.
	const sent = 64
	f := &wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FData, Packet: &wire.Packet{
		Type: wire.PTData, Route: wire.RouteLinkState, TTL: 4, Src: src, Dst: 2,
	}}
	for i := 0; i < sent; i++ {
		f.Packet.FlowSeq = uint32(i + 1)
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		drv.Send(2, 0, b)
	}
	await(t, 5*time.Second, fmt.Sprintf("%d frames delivered", sent), func() bool {
		return d.NodeStats().DeliveredLocal >= sent
	})
	var handoffs uint64
	for i := 0; i < shards; i++ {
		st := d.ShardStats(i)
		handoffs += st.Handoffs
		if i != home && st.RecvDelivered > 0 {
			t.Errorf("shard %d delivered %d frames; all should land on home shard %d",
				i, st.RecvDelivered, home)
		}
	}
	if handoffs != 0 {
		t.Errorf("steered arrivals crossed shards %d times, want 0", handoffs)
	}
	if got := d.ShardStats(home).RecvDelivered; got < sent {
		t.Errorf("home shard delivered %d frames, want >= %d", got, sent)
	}
}

// TestDaemonAdmittedPeerFramesStayHome admits a peer into a running
// four-shard daemon and drives data frames from it. The underlay delivers
// them on wire.HomeShard of the peer's id, so the node must home its link
// session on the same shard: when it homed admitted peers on shard 0,
// every one of these frames arrived on a shard that did not own it.
func TestDaemonAdmittedPeerFramesStayHome(t *testing.T) {
	const shards = 4
	src := wire.NodeID(3)
	for wire.HomeShard(src, shards) == 0 {
		src++
	}
	d, err := NewDaemon(DaemonConfig{
		ID: 2, BindUDP: "127.0.0.1:0", Links: []LinkDef{{A: 1, B: 2, LatencyMs: 1}},
		HelloIntervalMs: 3600000, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	drv, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = drv.Close() }()
	if err := drv.AddPeer(2, d.UDPAddr()); err != nil {
		t.Fatal(err)
	}
	if err := d.AdmitPeer(src, 1, drv.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	const sent = 64
	f := &wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FData, Packet: &wire.Packet{
		Type: wire.PTData, Route: wire.RouteLinkState, TTL: 4, Src: src, Dst: 2,
	}}
	// The admission is queued on the peer's home shard before AdmitPeer
	// returns, so every frame sent after it meets the link entry.
	await(t, 5*time.Second, fmt.Sprintf("%d frames delivered", sent), func() bool {
		if d.NodeStats().DeliveredLocal >= sent {
			return true
		}
		f.Packet.FlowSeq++
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		drv.Send(2, 0, b)
		return false
	})
	if st := d.NodeStats(); st.DroppedUnknownPeer != 0 {
		t.Fatalf("%d of the admitted peer's frames missed its link session on shard %d: %+v",
			st.DroppedUnknownPeer, wire.HomeShard(src, shards), st)
	}
}

// TestDaemonShardLedgersSumAndBalance pushes intrusion-tolerant traffic
// through a 3-daemon chain running the sharded protocol plane and checks
// the accounting: per-shard wire ledgers sum to each daemon's aggregate,
// and the merged fair-scheduler ledger balances (every enqueued packet
// transmitted, dropped for an attributed cause, or still queued).
func TestDaemonShardLedgersSumAndBalance(t *testing.T) {
	links := []LinkDef{{A: 1, B: 2, LatencyMs: 1}, {A: 2, B: 3, LatencyMs: 1}}
	daemons := make(map[wire.NodeID]*Daemon, 3)
	addrs := make(map[wire.NodeID][]string, 3)
	for i := 1; i <= 3; i++ {
		id := wire.NodeID(i)
		cfg := DaemonConfig{
			ID: id, BindUDP: "127.0.0.1:0", Links: links,
			HelloIntervalMs: 3600000, Shards: 4,
		}
		if id != 2 {
			cfg.BindTCP = "127.0.0.1:0"
		}
		d, err := NewDaemon(cfg)
		if err != nil {
			t.Fatalf("NewDaemon(%d): %v", i, err)
		}
		daemons[id] = d
		addrs[id] = []string{d.UDPAddr()}
		t.Cleanup(d.Close)
	}
	for id, d := range daemons {
		for peer, as := range addrs {
			if peer == id {
				continue
			}
			if err := d.AddPeer(peer, as...); err != nil {
				t.Fatal(err)
			}
		}
	}
	var mu sync.Mutex
	received := 0
	recv, err := Dial(daemons[3].TCPAddr(), 700, func(session.Delivery) {
		mu.Lock()
		received++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = recv.Close() }()
	send, err := Dial(daemons[1].TCPAddr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = send.Close() }()
	flow, err := send.OpenFlow(session.FlowSpec{
		DstNode: 3, DstPort: 700, LinkProto: wire.LPITPriority,
	})
	if err != nil {
		t.Fatal(err)
	}
	// In lock step — each message delivered before the next leaves — so
	// the bounded fair queue never evicts (by design, a tight-loop burst
	// would) and the end-to-end count is exact.
	const n = 100
	for i := 0; i < n; i++ {
		if err := flow.Send([]byte(fmt.Sprintf("it%d", i))); err != nil {
			t.Fatalf("Send: %v", err)
		}
		await(t, 5*time.Second, fmt.Sprintf("message %d delivered", i), func() bool {
			mu.Lock()
			defer mu.Unlock()
			return received > i
		})
	}
	// The last delivery can overtake the sending shards' bookkeeping: wait
	// for the identities themselves.
	balanced := func() error {
		for id, d := range daemons {
			var sum metrics.WireSnapshot
			for i := 0; i < d.Shards(); i++ {
				sum = sum.Merge(d.ShardStats(i))
			}
			if agg := d.WireStats(); sum != agg {
				return fmt.Errorf("daemon %d: shard wire ledgers sum %+v != aggregate %+v", id, sum, agg)
			}
			if sched := d.SchedStats(); !sched.Balanced() {
				return fmt.Errorf("daemon %d: scheduler ledger unbalanced: %+v", id, sched)
			}
		}
		return nil
	}
	if !waitFor(t, 5*time.Second, func() bool { return balanced() == nil }) {
		t.Fatal(balanced())
	}
	// The transit daemon's protocol work happened on its shards: the
	// merged node stats must show the forwarding.
	if fwd := daemons[2].NodeStats().Forwarded; fwd < n {
		t.Errorf("transit daemon forwarded %d, want >= %d", fwd, n)
	}
}

// TestDaemonStatsAcrossClose hammers the cross-loop readers while the
// daemon closes under them: a read that raced Close used to post to a
// loop that had already stopped and wait forever for the answer. Every
// reader must return (zeros are fine) within the watchdog.
func TestDaemonStatsAcrossClose(t *testing.T) {
	for round := 0; round < 50; round++ {
		d, err := NewDaemon(DaemonConfig{
			ID: 2, BindUDP: "127.0.0.1:0",
			Links:           []LinkDef{{A: 1, B: 2, LatencyMs: 1}, {A: 2, B: 3, LatencyMs: 1}},
			HelloIntervalMs: 3600000, Shards: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var readers sync.WaitGroup
		for i := 0; i < 4; i++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
						d.NodeStats()
						d.SchedStats()
					}
				}
			}()
		}
		time.Sleep(time.Millisecond)
		d.Close()
		close(stop)
		done := make(chan struct{})
		go func() { readers.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("a stats reader is still blocked 5 s after Close")
		}
		if st := d.NodeStats(); st != (node.Stats{}) {
			t.Fatalf("NodeStats after Close = %+v, want zeros", st)
		}
	}
}
