package transport

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonet/internal/session"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// startChain spins up a daemon chain 1-2-…-n over loopback UDP with fast
// hellos, wiring peer addresses after all sockets are bound.
func startChain(t *testing.T, n int, clientsOn ...wire.NodeID) map[wire.NodeID]*Daemon {
	t.Helper()
	links := make([]LinkDef, 0, n-1)
	for i := 1; i < n; i++ {
		links = append(links, LinkDef{A: wire.NodeID(i), B: wire.NodeID(i + 1), LatencyMs: 1})
	}
	wantTCP := make(map[wire.NodeID]bool, len(clientsOn))
	for _, id := range clientsOn {
		wantTCP[id] = true
	}
	// First pass: bind every daemon on an ephemeral UDP port with no
	// peers, collecting addresses.
	daemons := make(map[wire.NodeID]*Daemon, n)
	addrs := make(map[wire.NodeID][]string, n)
	for i := 1; i <= n; i++ {
		id := wire.NodeID(i)
		cfg := DaemonConfig{
			ID:              id,
			BindUDP:         "127.0.0.1:0",
			Links:           links,
			HelloIntervalMs: 20,
			Shards:          testShards(),
		}
		if wantTCP[id] {
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
	// Second pass: register neighbor addresses.
	for id, d := range daemons {
		for peer, as := range addrs {
			if peer == id {
				continue
			}
			if err := d.AddPeer(peer, as...); err != nil {
				t.Fatalf("AddPeer: %v", err)
			}
		}
	}
	return daemons
}

func TestUDPUnderlayDelivery(t *testing.T) {
	type rx struct {
		from wire.NodeID
		data []byte
	}
	got := make(chan rx, 10)
	exec := sim.Inline{}
	a, err := NewUDPUnderlay("127.0.0.1:0", exec, func(from wire.NodeID, data []byte) {
		got <- rx{from: from, data: data}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
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
	b.Send(1, 0, []byte("frame"))
	select {
	case r := <-got:
		if r.from != 2 || string(r.data) != "frame" {
			t.Fatalf("received %v %q", r.from, r.data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame never arrived")
	}
}

func TestUDPUnderlayIgnoresUnknownSenders(t *testing.T) {
	exec := sim.Inline{}
	got := make(chan struct{}, 1)
	a, err := NewUDPUnderlay("127.0.0.1:0", exec, func(wire.NodeID, []byte) {
		got <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	stranger, err := NewUDPUnderlay("127.0.0.1:0", exec, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = stranger.Close() }()
	if err := stranger.AddPeer(1, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	stranger.Send(1, 0, []byte("spoof"))
	await(t, 2*time.Second, "the spoofed frame counted unknown", func() bool { return a.Stats().RecvUnknown == 1 })
	select {
	case <-got:
		t.Fatal("frame from unregistered sender delivered")
	default:
	}
}

func TestDaemonChainEndToEnd(t *testing.T) {
	daemons := startChain(t, 3, 1, 3)

	var mu sync.Mutex
	var got []session.Delivery
	recv, err := Dial(daemons[3].TCPAddr(), 700, func(d session.Delivery) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = recv.Close() }()
	send, err := Dial(daemons[1].TCPAddr(), 0, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = send.Close() }()
	if send.Port() == 0 {
		t.Fatal("ephemeral port not assigned")
	}
	flow, err := send.OpenFlow(session.FlowSpec{
		DstNode: 3, DstPort: 700,
		LinkProto: wire.LPReliable, Ordered: true,
	})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	awaitRoute(t, daemons[3], send, 3)
	const n = 50
	for i := 0; i < n; i++ {
		if err := flow.Send([]byte(fmt.Sprintf("m%d", i))); err != nil {
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
		if d.Seq != uint32(i+1) || d.From != 1 {
			t.Fatalf("delivery %d = %+v", i, d)
		}
	}
	if string(got[0].Payload) != "m0" {
		t.Fatalf("payload %q", got[0].Payload)
	}
}

// TestDaemonReliableAcksOncePerTurn streams a burst of reliable ordered
// messages down a three-daemon chain and counts link acks. A Reliable
// endpoint acks once per underlay turn, one drain of a read batch, rather
// than once per data frame, so each endpoint that receives the burst sends
// at most one ack for every two frames it delivered. Loopback loses
// nothing and every ack leaves within its turn, so a sender retransmits
// only when its RTO, floored at 2 ms, fires during a stall of the host.
// Acking every frame meets the same stalls, a frame or two in a few runs
// of each hundred, with or without the race detector; acks that never
// left would cost a window's worth. So the bound is 2 % of the frames
// sent. Runs at one and four shards, or at SONET_DAEMON_SHARDS alone when
// that is set.
func TestDaemonReliableAcksOncePerTurn(t *testing.T) {
	counts := []int{1, 4}
	if n := testShards(); n > 0 {
		counts = []int{n}
	}
	for _, shards := range counts {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Setenv("SONET_DAEMON_SHARDS", strconv.Itoa(shards))
			daemons := startChain(t, 3, 1, 3)
			var received atomic.Int64
			recv, err := Dial(daemons[3].TCPAddr(), 700, func(session.Delivery) { received.Add(1) })
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = recv.Close() }()
			send, err := Dial(daemons[1].TCPAddr(), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = send.Close() }()
			failOnDaemonError(t, send)
			flow, err := send.OpenFlow(session.FlowSpec{
				DstNode: 3, DstPort: 700,
				LinkProto: wire.LPReliable, Ordered: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			awaitRoute(t, daemons[3], send, 3)
			// Windows of 100 stay under the receiving daemon's 256-message
			// client queue, which a whole burst at once would overflow.
			const burst, window = 600, 100
			msg := make([]byte, 64)
			for i := 0; i < burst; i++ {
				if err := flow.Send(msg); err != nil {
					t.Fatalf("Send: %v", err)
				}
				if (i+1)%window == 0 {
					await(t, 10*time.Second, fmt.Sprintf("%d messages delivered", i+1), func() bool {
						return received.Load() == int64(i+1)
					})
				}
			}
			for _, hop := range [][2]wire.NodeID{{1, 2}, {2, 3}} {
				from, to := hop[0], hop[1]
				rx := daemons[to].DataPlane().LinkStats(from)[wire.LPReliable]
				tx := daemons[from].DataPlane().LinkStats(to)[wire.LPReliable]
				t.Logf("link %d→%d: %d delivered, %d acks; sender %d sent, %d retransmitted",
					from, to, rx.Delivered, rx.Acks, tx.DataSent, tx.Retransmissions)
				if rx.Delivered < burst {
					t.Errorf("link %d→%d delivered %d frames, want ≥ %d", from, to, rx.Delivered, burst)
				}
				if 2*rx.Acks > rx.Delivered {
					t.Errorf("link %d→%d sent %d acks for %d frames delivered, want ≤ half", from, to, rx.Acks, rx.Delivered)
				}
				if 50*tx.Retransmissions > tx.DataSent {
					t.Errorf("link %d→%d retransmitted %d of %d frames on loopback, want ≤ 2 %%",
						from, to, tx.Retransmissions, tx.DataSent)
				}
			}
		})
	}
}

func TestDaemonMulticastOverUDP(t *testing.T) {
	daemons := startChain(t, 3, 1, 2, 3)
	const grp wire.GroupID = 42

	recvAt := func(id wire.NodeID) (*Client, *sync.Mutex, *int) {
		var mu sync.Mutex
		count := 0
		c, err := Dial(daemons[id].TCPAddr(), 800, func(session.Delivery) {
			mu.Lock()
			count++
			mu.Unlock()
		})
		if err != nil {
			t.Fatalf("Dial(%d): %v", id, err)
		}
		t.Cleanup(func() { _ = c.Close() })
		if err := c.Join(grp); err != nil {
			t.Fatalf("Join: %v", err)
		}
		return c, &mu, &count
	}
	_, mu2, n2 := recvAt(2)
	_, mu3, n3 := recvAt(3)

	send, err := Dial(daemons[1].TCPAddr(), 0, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = send.Close() }()
	flow, err := send.OpenFlow(session.FlowSpec{Group: grp, DstPort: 800})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	// The source must route to the far member and know both members from
	// their flooded announcements before the tree it computes covers them.
	awaitRoute(t, daemons[3], send, 3)
	src := daemons[1]
	await(t, 5*time.Second, "both members in the source's group directory", func() bool {
		ch := make(chan int, 1)
		src.loop.Post(func() { ch <- len(src.node.Groups().Members(grp)) })
		return <-ch == 2
	})
	for i := 0; i < 10; i++ {
		if err := flow.Send([]byte("mc")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	await(t, 5*time.Second, "10 messages at each member", func() bool {
		mu2.Lock()
		a := *n2
		mu2.Unlock()
		mu3.Lock()
		defer mu3.Unlock()
		return a == 10 && *n3 == 10
	})
}

func TestDaemonRejectsDuplicatePort(t *testing.T) {
	daemons := startChain(t, 2, 1)
	c1, err := Dial(daemons[1].TCPAddr(), 900, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = c1.Close() }()
	if _, err := Dial(daemons[1].TCPAddr(), 900, nil); err == nil {
		t.Fatal("duplicate port accepted")
	}
}

func TestDaemonCloseIsIdempotent(t *testing.T) {
	daemons := startChain(t, 2)
	daemons[1].Close()
	daemons[1].Close()
}

// TestDaemonAdmissionAfterCloseReturns calls each runtime-admission method
// on a closed daemon. Its control loop is gone, so each must return, with
// an error where it has one, instead of waiting for a reply nobody sends.
func TestDaemonAdmissionAfterCloseReturns(t *testing.T) {
	d := startSolo(t)
	d.Close()
	calls := []struct {
		name string
		call func() error
	}{
		{"AdmitPeer", func() error { return d.AdmitPeer(2, 1, "127.0.0.1:9") }},
		{"AddPeer", func() error { return d.AddPeer(2, "127.0.0.1:9") }},
		{"Apply", func() error { return d.Apply(DaemonConfig{ID: 1, Links: []LinkDef{{A: 1, B: 3, LatencyMs: 1}}}) }},
		{"EvictPeer", func() error { d.EvictPeer(2); return nil }},
	}
	for _, c := range calls {
		done := make(chan error, 1)
		go func() { done <- c.call() }()
		select {
		case err := <-done:
			if err == nil && c.name != "EvictPeer" {
				t.Errorf("%s after Close returned no error", c.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s after Close never returned", c.name)
		}
	}
}

func TestDaemonFailureTriggersReroute(t *testing.T) {
	// Diamond over real UDP: 1-2-4 and 1-3-4. Daemon 2 dies mid-stream;
	// the overlay detects the dead neighbor via hellos and reroutes the
	// flow through daemon 3.
	links := []LinkDef{
		{A: 1, B: 2, LatencyMs: 1}, {A: 2, B: 4, LatencyMs: 1},
		{A: 1, B: 3, LatencyMs: 2}, {A: 3, B: 4, LatencyMs: 2},
	}
	daemons := make(map[wire.NodeID]*Daemon, 4)
	addrs := make(map[wire.NodeID][]string, 4)
	for i := 1; i <= 4; i++ {
		id := wire.NodeID(i)
		cfg := DaemonConfig{
			ID: id, BindUDP: "127.0.0.1:0",
			Links: links, HelloIntervalMs: 20,
			Shards: testShards(),
		}
		if id == 1 || id == 4 {
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
			if peer != id {
				if err := d.udp.AddPeer(peer, as...); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	var mu sync.Mutex
	received := 0
	recv, err := Dial(daemons[4].TCPAddr(), 700, func(session.Delivery) {
		mu.Lock()
		received++
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = recv.Close() }()
	send, err := Dial(daemons[1].TCPAddr(), 0, nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer func() { _ = send.Close() }()
	flow, err := send.OpenFlow(session.FlowSpec{
		DstNode: 4, DstPort: 700,
		LinkProto: wire.LPReliable, Ordered: true,
	})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	awaitRoute(t, daemons[4], send, 4)

	// Stream in lock step — each message delivered before the next leaves —
	// and kill daemon 2 a third of the way in: the message sent across the
	// failure must be recovered over the detour.
	const n = 60
	for i := 0; i < n; i++ {
		if i == n/3 {
			daemons[2].Close()
		}
		if err := flow.Send([]byte("x")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		await(t, 10*time.Second, fmt.Sprintf("message %d delivered", i), func() bool {
			mu.Lock()
			defer mu.Unlock()
			return received > i
		})
	}
	// The surviving detour must have carried traffic.
	if fwd := daemons[3].NodeStats().Forwarded; fwd == 0 {
		t.Fatal("detour daemon forwarded nothing")
	}
}
