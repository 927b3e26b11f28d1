package transport

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sonet/internal/linkstate"
	"sonet/internal/session"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// onLoop runs fn on the daemon's control loop and waits for it.
func onLoop(d *Daemon, fn func()) {
	done := make(chan struct{})
	d.loop.Post(func() {
		fn()
		close(done)
	})
	<-done
}

// neighborUp reports whether d's link to peer is up, read on its loop.
func neighborUp(d *Daemon, peer wire.NodeID) (up bool) {
	onLoop(d, func() { up = d.node.LinkStateManager().NeighborUp(peer) })
	return up
}

// chainAddrs collects every daemon's UDP address, the Peers of a config.
func chainAddrs(daemons map[wire.NodeID]*Daemon) map[wire.NodeID][]string {
	addrs := make(map[wire.NodeID][]string, len(daemons))
	for id, d := range daemons {
		addrs[id] = []string{d.UDPAddr()}
	}
	return addrs
}

// TestDaemonApplyGrowsChain is the regression test for runtime admission
// by config reload: a 3-daemon chain grows to 4 by applying the grown
// config on every running daemon. The adjacent daemon admits the newcomer
// as a live neighbor and the far daemons learn the remote 3-4 link, so SPF
// routes through it — admitting only on the adjacent daemon used to leave
// the rest of the fleet with no route to the newcomer.
func TestDaemonApplyGrowsChain(t *testing.T) {
	daemons := startChain(t, 3, 1)
	grown := []LinkDef{
		{A: 1, B: 2, LatencyMs: 1},
		{A: 2, B: 3, LatencyMs: 1},
		{A: 3, B: 4, LatencyMs: 1},
	}
	d4, err := NewDaemon(DaemonConfig{
		ID: 4, BindUDP: "127.0.0.1:0", BindTCP: "127.0.0.1:0",
		Peers: map[wire.NodeID][]string{3: {daemons[3].UDPAddr()}},
		Links: grown, HelloIntervalMs: 20, Shards: testShards(),
	})
	if err != nil {
		t.Fatalf("NewDaemon(4): %v", err)
	}
	t.Cleanup(d4.Close)
	addrs := chainAddrs(daemons)
	addrs[4] = []string{d4.UDPAddr()}
	for id, d := range daemons {
		if err := d.Apply(DaemonConfig{ID: id, Peers: addrs, Links: grown}); err != nil {
			t.Fatalf("Apply(%d): %v", id, err)
		}
	}
	if !neighborUp(daemons[3], 4) {
		t.Fatal("adjacent daemon did not admit node 4")
	}

	var mu sync.Mutex
	var got []session.Delivery
	recv, err := Dial(d4.TCPAddr(), 700, func(d session.Delivery) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Dial(4): %v", err)
	}
	defer func() { _ = recv.Close() }()
	send, err := Dial(daemons[1].TCPAddr(), 0, nil)
	if err != nil {
		t.Fatalf("Dial(1): %v", err)
	}
	defer func() { _ = send.Close() }()
	flow, err := send.OpenFlow(session.FlowSpec{
		DstNode: 4, DstPort: 700,
		LinkProto: wire.LPReliable, Ordered: true,
	})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	awaitRoute(t, d4, send, 4) // hellos on the new 3-4 link, LSAs to node 1
	const n = 30
	for i := 0; i < n; i++ {
		if err := flow.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	await(t, 5*time.Second, "every message at the admitted node", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, d := range got {
		if d.Seq != uint32(i+1) || d.From != 1 {
			t.Fatalf("delivery %d = %+v", i, d)
		}
	}
}

// TestDaemonApplyWithdrawalEvicts applies a config without the 2-3 link
// and without node 3's addresses on daemon 2: the neighbor is evicted (its
// link administratively down in the view) and the underlay forgets it,
// while the kept link and its peer's addresses stay.
func TestDaemonApplyWithdrawalEvicts(t *testing.T) {
	daemons := startChain(t, 3)
	d2 := daemons[2]
	await(t, 5*time.Second, "both links up at daemon 2", func() bool {
		return neighborUp(d2, 1) && neighborUp(d2, 3)
	})
	addrs := chainAddrs(daemons)
	if err := d2.Apply(DaemonConfig{ID: 2, Peers: addrs, Links: []LinkDef{{A: 1, B: 2, LatencyMs: 1}, {A: 2, B: 3, LatencyMs: 1}}}); err != nil {
		t.Fatal(err)
	}
	delete(addrs, 3)
	if err := d2.Apply(DaemonConfig{ID: 2, Peers: addrs, Links: []LinkDef{{A: 1, B: 2, LatencyMs: 1}}}); err != nil {
		t.Fatal(err)
	}
	var usable bool
	onLoop(d2, func() {
		l, _ := d2.node.View().G.LinkBetween(2, 3)
		usable = d2.node.View().Usable(l.ID)
	})
	if usable || neighborUp(d2, 3) {
		t.Fatal("withdrawn link 2-3 still up at daemon 2")
	}
	if _, ok := d2.udp.table.Load().peers[3]; ok {
		t.Fatal("evicted node 3 still has addresses at daemon 2")
	}
	if _, ok := d2.udp.table.Load().peers[1]; !ok || !neighborUp(d2, 1) {
		t.Fatal("withdrawal disturbed the kept 1-2 link")
	}
}

// TestDaemonApplyRunningConfigIsNoop applies the config a daemon is running
// — rebuilt from scratch, links reordered and endpoints swapped — and
// requires nothing to happen: no LSA originated, no counter moved, no
// view change. The manager's periodic refresh is the one thing that may
// legitimately move a counter between two reads, so a mismatch is
// retried; a reload that originates anything mismatches every time.
func TestDaemonApplyRunningConfigIsNoop(t *testing.T) {
	config := func() DaemonConfig {
		return DaemonConfig{
			ID: 2, BindUDP: "127.0.0.1:0",
			Peers: map[wire.NodeID][]string{1: {"127.0.0.1:9"}, 3: {"127.0.0.1:9", "127.0.0.2:9"}, 4: {"127.0.0.1:9"}},
			Links: []LinkDef{
				{A: 1, B: 2, LatencyMs: 1}, {A: 2, B: 3, LatencyMs: 2}, {A: 3, B: 4, LatencyMs: 3},
			},
			HelloIntervalMs: 3600000, Shards: testShards(),
		}
	}
	d, err := NewDaemon(config())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	state := func() (st linkstate.Stats, version uint64) {
		onLoop(d, func() {
			st = d.node.LinkStateManager().Stats()
			version = d.node.View().Version()
		})
		return st, version
	}
	for attempt := 0; ; attempt++ {
		st0, v0 := state()
		again := config()
		again.Links = []LinkDef{{A: 4, B: 3, LatencyMs: 3}, {A: 2, B: 1, LatencyMs: 1}, {A: 3, B: 2, LatencyMs: 2}}
		if err := d.Apply(again); err != nil {
			t.Fatal(err)
		}
		st1, v1 := state()
		if st1 == st0 && v1 == v0 {
			return
		}
		if attempt == 2 {
			t.Fatalf("re-applying the running config moved the link state: %+v → %+v, view version %d → %d", st0, st1, v0, v1)
		}
	}
}

// TestDaemonApplyMatchesConfigGraph is the differential check on the one
// admission path: every daemon of a 14-node generated deployment, built
// through Apply, holds exactly the link table (ids, endpoints, designed
// latencies) of a topology.Graph built straight from its config's links,
// and homes every peer on wire.HomeShard of its id.
func TestDaemonApplyMatchesConfigGraph(t *testing.T) {
	ring, err := topology.RingWithChords(14)
	if err != nil {
		t.Fatal(err)
	}
	tc := TopologyConfig{Nodes: make(map[wire.NodeID]NodeAddr), HelloIntervalMs: 3600000}
	for i, l := range ring.Links() {
		tc.Links = append(tc.Links, LinkDef{A: l.A, B: l.B, LatencyMs: 1 + i%7})
	}
	for _, id := range ring.Nodes() {
		tc.Nodes[id] = NodeAddr{UDP: []string{fmt.Sprintf("127.0.0.1:%d", 9000+int(id))}}
	}
	cfgs, err := GenerateConfigs(tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, id := range ring.Nodes() {
				cfg := cfgs[id]
				cfg.BindUDP, cfg.Shards = "127.0.0.1:0", shards
				want := topology.NewGraph()
				for _, l := range cfg.Links {
					if _, err := want.AddLink(l.A, l.B, l.latency()); err != nil {
						t.Fatal(err)
					}
				}
				d, err := NewDaemon(cfg)
				if err != nil {
					t.Fatalf("NewDaemon(%d): %v", id, err)
				}
				var got []topology.Link
				onLoop(d, func() { got = slices.Clone(d.node.View().G.Links()) })
				table := d.udp.table.Load()
				d.Close()
				if !slices.Equal(got, want.Links()) {
					t.Fatalf("node %d holds links %v, its config %v", id, got, want.Links())
				}
				if len(table.peers) != len(cfg.Peers) {
					t.Fatalf("node %d registered %d peers, its config %d", id, len(table.peers), len(cfg.Peers))
				}
				for peer := range cfg.Peers {
					if home, want := table.peers[peer].home, int32(wire.HomeShard(peer, shards)); home != want {
						t.Errorf("node %d homes peer %d on shard %d, want %d", id, peer, home, want)
					}
				}
			}
		})
	}
}

// TestDaemonReadmitAfterEvict evicts a live neighbor and admits it again:
// the link must come back up. Re-admission used to find the link already
// designed and the peer already registered, and left it disabled for
// good.
func TestDaemonReadmitAfterEvict(t *testing.T) {
	daemons := startChain(t, 2)
	d1, d2 := daemons[1], daemons[2]
	await(t, 5*time.Second, "link 1-2 up", func() bool { return neighborUp(d1, 2) })
	d1.EvictPeer(2)
	if neighborUp(d1, 2) {
		t.Fatal("evicted neighbor still up")
	}
	if err := d1.AdmitPeer(2, 1, d2.UDPAddr()); err != nil {
		t.Fatal(err)
	}
	await(t, 5*time.Second, "re-admitted link 1-2 up", func() bool { return neighborUp(d1, 2) })
}

// TestDaemonApplyRestoresEvictedPeer evicts a live neighbor at runtime and
// then applies a config that names it and its link: the reload must bring
// the link back up and register the peer's address. Eviction used to
// leave the config the reload is diffed against as it was, so the reload
// found nothing to change and the link stayed down.
func TestDaemonApplyRestoresEvictedPeer(t *testing.T) {
	daemons := startChain(t, 2)
	d1 := daemons[1]
	await(t, 5*time.Second, "link 1-2 up", func() bool { return neighborUp(d1, 2) })
	d1.EvictPeer(2)
	if neighborUp(d1, 2) {
		t.Fatal("evicted neighbor still up")
	}
	if err := d1.Apply(DaemonConfig{ID: 1, Peers: chainAddrs(daemons), Links: []LinkDef{{A: 1, B: 2, LatencyMs: 1}}}); err != nil {
		t.Fatal(err)
	}
	await(t, 5*time.Second, "link 1-2 up and peer 2 registered after the reload", func() bool {
		_, ok := d1.udp.table.Load().peers[2]
		return ok && neighborUp(d1, 2)
	})
}

// TestDaemonApplyUndoesRuntimeAdmission admits node 3 at runtime on a
// daemon whose config lacks it, then applies that config again: the
// reload must evict node 3 and drop its address, and leave the configured
// link alone.
func TestDaemonApplyUndoesRuntimeAdmission(t *testing.T) {
	daemons := startChain(t, 2)
	d2 := daemons[2]
	d3, err := NewDaemon(DaemonConfig{
		ID: 3, BindUDP: "127.0.0.1:0",
		Peers:           map[wire.NodeID][]string{2: {d2.UDPAddr()}},
		Links:           []LinkDef{{A: 1, B: 2, LatencyMs: 1}, {A: 2, B: 3, LatencyMs: 1}},
		HelloIntervalMs: 20, Shards: testShards(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d3.Close)
	config := DaemonConfig{ID: 2, Peers: chainAddrs(daemons), Links: []LinkDef{{A: 1, B: 2, LatencyMs: 1}}}
	if err := d2.AdmitPeer(3, 1, d3.UDPAddr()); err != nil {
		t.Fatal(err)
	}
	await(t, 5*time.Second, "admitted link 2-3 up", func() bool { return neighborUp(d2, 3) })
	if err := d2.Apply(config); err != nil {
		t.Fatal(err)
	}
	var usable bool
	onLoop(d2, func() {
		l, _ := d2.node.View().G.LinkBetween(2, 3)
		usable = d2.node.View().Usable(l.ID)
	})
	if usable || neighborUp(d2, 3) {
		t.Fatal("reload left the runtime-admitted link 2-3 up")
	}
	if _, ok := d2.udp.table.Load().peers[3]; ok {
		t.Fatal("reload left node 3's addresses registered")
	}
	await(t, 5*time.Second, "configured link 1-2 up", func() bool { return neighborUp(d2, 1) })
}
