package sonet

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonet/internal/wire"
)

// await polls cond until it holds, failing the test after d with what
// never happened.
func await(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// awaitRoute sends best-effort probes from c until one reaches a
// throwaway client at node dst, served by at: the overlay has converged.
func awaitRoute(t *testing.T, c *RemoteClient, at *Daemon, dst NodeID) {
	t.Helper()
	var got atomic.Bool
	probe, err := DialDaemon(at.TCPAddr(), 0, func(Delivery) { got.Store(true) })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = probe.Close() }()
	f, err := c.OpenFlow(FlowSpec{To: dst, ToPort: probe.Port()})
	if err != nil {
		t.Fatal(err)
	}
	await(t, 10*time.Second, "a route to the destination", func() bool {
		_ = f.Send([]byte("probe"))
		return got.Load()
	})
}

// TestPublicDaemonAPI boots a three-daemon chain over loopback UDP via
// the public API and streams a reliable flow across it.
func TestPublicDaemonAPI(t *testing.T) {
	links := []DaemonLink{
		{A: 1, B: 2, Latency: time.Millisecond},
		{A: 2, B: 3, Latency: time.Millisecond},
	}
	daemons := make(map[NodeID]*Daemon, 3)
	for i := NodeID(1); i <= 3; i++ {
		cfg := DaemonConfig{
			ID: i, BindUDP: "127.0.0.1:0",
			Links: links, HelloInterval: 20 * time.Millisecond,
		}
		if i == 1 || i == 3 {
			cfg.BindTCP = "127.0.0.1:0"
		}
		d, err := StartDaemon(cfg)
		if err != nil {
			t.Fatalf("StartDaemon(%d): %v", i, err)
		}
		daemons[i] = d
		t.Cleanup(d.Close)
	}
	for id, d := range daemons {
		for peer, pd := range daemons {
			if peer == id {
				continue
			}
			if err := d.AddPeer(peer, pd.UDPAddr()); err != nil {
				t.Fatalf("AddPeer: %v", err)
			}
		}
	}

	var mu sync.Mutex
	var got []Delivery
	recv, err := DialDaemon(daemons[3].TCPAddr(), 700, func(d Delivery) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("DialDaemon: %v", err)
	}
	defer func() { _ = recv.Close() }()
	send, err := DialDaemon(daemons[1].TCPAddr(), 0, nil)
	if err != nil {
		t.Fatalf("DialDaemon: %v", err)
	}
	defer func() { _ = send.Close() }()
	flow, err := send.OpenFlow(FlowSpec{
		To: 3, ToPort: 700, Service: Reliable, Ordered: true,
	})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	awaitRoute(t, send, daemons[3], 3)
	const n = 30
	for i := 0; i < n; i++ {
		if err := flow.Send([]byte("deployed")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	await(t, 5*time.Second, "every message delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, d := range got {
		if d.Seq != uint32(i+1) || d.From != 1 || string(d.Payload) != "deployed" {
			t.Fatalf("delivery %d = %+v", i, d)
		}
	}
	st := daemons[2].Stats()
	if st.Forwarded == 0 {
		t.Fatal("relay daemon forwarded nothing")
	}
	// Read on the daemon's loops: the relay's reliable endpoints have their
	// receive windows, and unicast left nothing in the dedup table.
	if fp := st.Footprint; fp.WindowBytes == 0 || fp.DedupEntries != 0 {
		t.Fatalf("relay daemon footprint %+v", fp)
	}
	// Read on the control loop: by the first refresh (2 s) the relay has
	// passed an end daemon's advertisement on to the other.
	await(t, 5*time.Second, "the relay daemon to flood an LSA", func() bool {
		return daemons[2].Stats().Control.FloodedLSAs > 0
	})
}

// TestPublicDaemonSchedStats streams an intrusion-tolerant flow between
// two real-UDP daemons and checks the fair-scheduler accounting surfaces
// through the public Daemon API.
func TestPublicDaemonSchedStats(t *testing.T) {
	links := []DaemonLink{{A: 1, B: 2, Latency: time.Millisecond}}
	daemons := make(map[NodeID]*Daemon, 2)
	for i := NodeID(1); i <= 2; i++ {
		d, err := StartDaemon(DaemonConfig{
			ID: i, BindUDP: "127.0.0.1:0", BindTCP: "127.0.0.1:0",
			Links: links, HelloInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("StartDaemon(%d): %v", i, err)
		}
		daemons[i] = d
		t.Cleanup(d.Close)
	}
	if err := daemons[1].AddPeer(2, daemons[2].UDPAddr()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	if err := daemons[2].AddPeer(1, daemons[1].UDPAddr()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}

	var mu sync.Mutex
	count := 0
	recv, err := DialDaemon(daemons[2].TCPAddr(), 800, func(d Delivery) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("DialDaemon: %v", err)
	}
	defer func() { _ = recv.Close() }()
	send, err := DialDaemon(daemons[1].TCPAddr(), 0, nil)
	if err != nil {
		t.Fatalf("DialDaemon: %v", err)
	}
	defer func() { _ = send.Close() }()
	flow, err := send.OpenFlow(FlowSpec{To: 2, ToPort: 800, Service: ITReliable})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	awaitRoute(t, send, daemons[2], 2)
	const n = 25
	for i := 0; i < n; i++ {
		if err := flow.Send([]byte("fair")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	await(t, 5*time.Second, "every message delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count == n
	})
	st := daemons[1].SchedStats()
	if st.Enqueued < n || st.Transmitted < n {
		t.Fatalf("sender scheduler accounting = %+v, want >= %d enqueued and transmitted", st, n)
	}
	if st.Backpressure != 0 {
		t.Fatalf("unexpected backpressure: %+v", st)
	}
}

// TestPublicDaemonStatsShowDrops checks an operator of the public API can
// see a drop: a frame from a sender the underlay knows but the overlay has
// no link to counts in Daemon.Stats().DroppedUnknownPeer.
func TestPublicDaemonStatsShowDrops(t *testing.T) {
	d, err := StartDaemon(DaemonConfig{
		ID: 1, BindUDP: "127.0.0.1:0",
		Links: []DaemonLink{{A: 1, B: 2, Latency: time.Millisecond}},
	})
	if err != nil {
		t.Fatalf("StartDaemon: %v", err)
	}
	defer d.Close()
	stranger, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stranger.Close() }()
	if err := d.AddPeer(9, stranger.LocalAddr().String()); err != nil {
		t.Fatalf("AddPeer: %v", err)
	}
	frame := wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FData, Packet: &wire.Packet{
		Type: wire.PTData, Route: wire.RouteLinkState, TTL: 8, Src: 9, Dst: 1, FlowSeq: 1,
	}}
	data, err := frame.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	to, err := net.ResolveUDPAddr("udp", d.UDPAddr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stranger.WriteTo(data, to); err != nil {
		t.Fatal(err)
	}
	await(t, 5*time.Second, "DroppedUnknownPeer 1", func() bool { return d.Stats().DroppedUnknownPeer == 1 })
}
