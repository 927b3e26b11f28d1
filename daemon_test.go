package sonet

import (
	"net"
	"sync"
	"testing"
	"time"

	"sonet/internal/wire"
)

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
	time.Sleep(200 * time.Millisecond) // hello convergence
	const n = 30
	for i := 0; i < n; i++ {
		if err := flow.Send([]byte("deployed")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		count := len(got)
		mu.Unlock()
		if count == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d", count, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
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
	for deadline := time.Now().Add(5 * time.Second); daemons[2].Stats().Control.FloodedLSAs == 0; {
		if time.Now().After(deadline) {
			t.Fatalf("relay daemon flooding account %+v", daemons[2].Stats().Control)
		}
		time.Sleep(50 * time.Millisecond)
	}
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
	time.Sleep(200 * time.Millisecond) // hello convergence
	const n = 25
	for i := 0; i < n; i++ {
		if err := flow.Send([]byte("fair")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		got := count
		mu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d/%d", got, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
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
	for deadline := time.Now().Add(5 * time.Second); d.Stats().DroppedUnknownPeer != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v, want DroppedUnknownPeer 1", d.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
