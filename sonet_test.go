package sonet

import (
	"errors"
	"testing"
	"time"
)

// apiDiamond is the 4-node diamond expressed through the public API.
func apiDiamond() []Link {
	ms := time.Millisecond
	return []Link{
		{A: 1, B: 2, Latency: 10 * ms},
		{A: 2, B: 4, Latency: 10 * ms},
		{A: 1, B: 3, Latency: 12 * ms},
		{A: 3, B: 4, Latency: 12 * ms},
	}
}

func TestPublicAPIQuickstart(t *testing.T) {
	net, err := New(1, apiDiamond())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer net.Close()
	dst, err := net.Connect(4, 100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	flow, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100, Service: Reliable, Ordered: true})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := flow.Send([]byte("hello")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	net.Run(time.Second)
	got := dst.Deliveries()
	if len(got) != 10 {
		t.Fatalf("delivered %d, want 10", len(got))
	}
	if string(got[0].Payload) != "hello" || got[0].From != 1 {
		t.Fatalf("delivery = %+v", got[0])
	}
	if got[0].Latency != 20*time.Millisecond {
		t.Fatalf("latency %v, want 20ms", got[0].Latency)
	}
	if flow.Sent() != 10 {
		t.Fatalf("Sent() = %d", flow.Sent())
	}
}

func TestPublicAPILossyReliable(t *testing.T) {
	links := apiDiamond()
	for i := range links {
		links[i].LossRate = 0.05
	}
	net, err := New(2, links)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer net.Close()
	dst, err := net.Connect(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100, Service: Reliable, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		i := i
		net.RunAt(time.Duration(i)*5*time.Millisecond, func() { _ = flow.Send(nil) })
	}
	net.Run(20 * time.Second)
	st := dst.Stats()
	if st.Received != 200 {
		t.Fatalf("received %d/200 over lossy links", st.Received)
	}
	// Some deliveries must be marked recovered.
	recovered := 0
	for _, d := range dst.Deliveries() {
		if d.Recovered {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no recovered deliveries at 5% loss")
	}
}

func TestPublicAPIBurstLossRealTime(t *testing.T) {
	links := []Link{{A: 1, B: 2, Latency: 40 * time.Millisecond,
		BurstLoss: &BurstLoss{PGoodBad: 0.003, PBadGood: 0.08, LossGood: 0.0005, LossBad: 0.85}}}
	net, err := New(3, links, WithStrikes(3, 2, 160*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	dst, err := net.Connect(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := src.OpenFlow(FlowSpec{
		To: 2, ToPort: 100, Service: RealTime,
		Ordered: true, Deadline: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		i := i
		net.RunAt(time.Duration(i)*time.Millisecond, func() { _ = flow.Send(nil) })
	}
	net.Run(10 * time.Second)
	st := dst.Stats()
	if ratio := float64(st.Received) / n; ratio < 0.995 {
		t.Fatalf("on-time delivery %.4f under bursty loss, want >= 0.995", ratio)
	}
	if st.P99Latency > 200*time.Millisecond {
		t.Fatalf("p99 %v exceeds deadline", st.P99Latency)
	}
}

func TestPublicAPIMulticastAndAnycast(t *testing.T) {
	net, err := New(4, apiDiamond())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	const grp GroupID = 9
	m2, err := net.Connect(2, 300)
	if err != nil {
		t.Fatal(err)
	}
	m2.Join(grp)
	m4, err := net.Connect(4, 300)
	if err != nil {
		t.Fatal(err)
	}
	m4.Join(grp)
	net.Settle()
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := src.OpenFlow(FlowSpec{Group: grp, ToPort: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Send([]byte("to-all")); err != nil {
		t.Fatal(err)
	}
	ac, err := src.OpenFlow(FlowSpec{Group: grp, ToPort: 300, Anycast: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ac.Send([]byte("to-one")); err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	d2 := m2.Deliveries()
	d4 := m4.Deliveries()
	if len(d2)+len(d4) != 3 {
		t.Fatalf("deliveries = %d + %d, want 3 (2 multicast + 1 anycast)", len(d2), len(d4))
	}
	if len(d2) != 2 {
		t.Fatalf("nearest member got %d, want multicast + anycast", len(d2))
	}
}

func TestPublicAPICompromiseAndDisjoint(t *testing.T) {
	net, err := New(5, apiDiamond(),
		WithAuthentication([]byte("trial")),
		WithCompromisedNode(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	dst, err := net.Connect(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	single, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := single.Send(nil); err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	if got := len(dst.Deliveries()); got != 0 {
		t.Fatalf("blackholed path delivered %d", got)
	}
	disjoint, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100, DisjointPaths: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := disjoint.Send(nil); err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	if got := len(dst.Deliveries()); got != 1 {
		t.Fatalf("disjoint delivery = %d, want 1", got)
	}
	st, ok := net.NodeStats(2)
	if !ok || st.Blackholed == 0 {
		t.Fatalf("compromised node stats = %+v", st)
	}
}

func TestPublicAPIFailureAndReroute(t *testing.T) {
	net, err := New(6, apiDiamond(), WithHelloInterval(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	path := net.PathBetween(1, 4)
	if len(path) != 3 || path[1] != 2 {
		t.Fatalf("initial path %v, want via 2", path)
	}
	if err := net.CutLink(1, 2); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Second)
	path = net.PathBetween(1, 4)
	if len(path) != 3 || path[1] != 3 {
		t.Fatalf("post-cut path %v, want via 3", path)
	}
	if err := net.RestoreLink(1, 2); err != nil {
		t.Fatal(err)
	}
	net.Run(8 * time.Second)
	path = net.PathBetween(1, 4)
	if len(path) != 3 || path[1] != 2 {
		t.Fatalf("post-restore path %v, want via 2 again", path)
	}
}

func TestPublicAPIValidation(t *testing.T) {
	if _, err := New(1, nil); err == nil {
		t.Fatal("empty topology accepted")
	}
	net, err := New(7, apiDiamond())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := net.Connect(99, 0); err == nil {
		t.Fatal("connect to unknown node accepted")
	}
	if err := net.CutLink(1, 99); err == nil {
		t.Fatal("cut of unknown link accepted")
	}
	c, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenFlow(FlowSpec{}); err == nil {
		t.Fatal("flow without destination accepted")
	}
}

// TestNewRefusesNegativeLatency: a link's latency is its designed edge
// weight, and SPF takes no negative one.
func TestNewRefusesNegativeLatency(t *testing.T) {
	if net, err := New(1, []Link{{A: 1, B: 2, Latency: -time.Millisecond}}); err == nil {
		net.Close()
		t.Fatal("a link with negative latency accepted")
	}
}

// TestNewRefusesDuplicateLink: a topology that names 1–2 twice, in either
// order, is refused. Accepted, the second copy had no hello probing it, so
// after CutLink(1, 2) node 1 routed over it and delivered nothing.
func TestNewRefusesDuplicateLink(t *testing.T) {
	ms := time.Millisecond
	links := []Link{{A: 1, B: 2, Latency: 10 * ms}, {A: 2, B: 1, Latency: 30 * ms}, {A: 2, B: 3, Latency: 10 * ms}}
	if net, err := New(1, links); err == nil {
		net.Close()
		t.Fatal("a topology with two 1-2 links accepted")
	}
}

func TestPublicAPIDelayAndCorruptOptions(t *testing.T) {
	net, err := New(9, apiDiamond(),
		WithAuthentication([]byte("k")),
		WithCorruptingNode(2),
		WithDelayingNode(3, 200*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	dst, err := net.Connect(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Signed flow via the corrupting node 2: dropped downstream.
	f, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100, Service: ITPriority})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send([]byte("cmd")); err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	if got := dst.Stats().Received; got != 0 {
		t.Fatalf("tampered delivery count %d", got)
	}
	// Flooded copy survives via the delaying node 3, just late.
	ff, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100, Service: ITPriority, Flood: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := ff.Send([]byte("cmd")); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Second)
	st := dst.Stats()
	if st.Received != 1 {
		t.Fatalf("flood delivery count %d, want 1", st.Received)
	}
	if st.MeanLatency < 200*time.Millisecond {
		t.Fatalf("latency %v, want delayed >= 200ms via node 3", st.MeanLatency)
	}
}

func TestPublicAPINodeFailureAnycast(t *testing.T) {
	net, err := New(10, apiDiamond())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	const g GroupID = 31
	m2, err := net.Connect(2, 400)
	if err != nil {
		t.Fatal(err)
	}
	m2.Join(g)
	m3, err := net.Connect(3, 400)
	if err != nil {
		t.Fatal(err)
	}
	m3.Join(g)
	net.Settle()
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := src.OpenFlow(FlowSpec{Group: g, Anycast: true, ToPort: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := flow.Send(nil); err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	if len(m2.Deliveries()) != 1 {
		t.Fatal("nearest member did not serve")
	}
	// The nearest member's data center fails: anycast re-resolves.
	net.FailNode(2)
	net.Run(3 * time.Second)
	if err := flow.Send(nil); err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	if got := len(m3.Deliveries()); got != 1 {
		t.Fatalf("surviving member served %d, want 1", got)
	}
	// Restore and verify the node rejoins service.
	net.RestoreNode(2)
	net.Run(8 * time.Second)
	if err := flow.Send(nil); err != nil {
		t.Fatal(err)
	}
	net.Run(time.Second)
	if got := len(m2.Deliveries()); got != 1 {
		t.Fatalf("restored member served %d, want 1", got)
	}
}

// TestPublicAPIBackpressureAndSchedStats drives an intrusion-tolerant
// flow into a deliberately tiny per-flow buffer and checks the typed
// backpressure signal surfaces at the public Send, with the refusals and
// drains visible in the node's scheduler accounting.
func TestPublicAPIBackpressureAndSchedStats(t *testing.T) {
	net, err := New(1, apiDiamond(), WithITCapacity(50, 2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer net.Close()
	dst, err := net.Connect(4, 100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	flow, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100, Service: ITReliable})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	// Without draining the emulation clock, the paced link cannot serve:
	// the flow's 2-packet queue fills and further sends must refuse with
	// the typed error rather than silently dropping.
	refused := 0
	for i := 0; i < 20; i++ {
		if err := flow.Send([]byte{byte(i)}); err != nil {
			if !errors.Is(err, ErrBackpressure) {
				t.Fatalf("send %d: error %v, want ErrBackpressure", i, err)
			}
			refused++
		}
	}
	if refused != 18 {
		t.Fatalf("refused %d of 20 sends into a 2-packet queue, want 18", refused)
	}
	net.Run(2 * time.Second)
	if got := len(dst.Deliveries()); got != 2 {
		t.Fatalf("delivered %d, want the 2 accepted packets", got)
	}
	st, ok := net.SchedStats(1)
	if !ok {
		t.Fatal("SchedStats(1) not available")
	}
	if st.Backpressure != 18 || st.Enqueued != 2 || st.Transmitted != 2 || st.Queued != 0 {
		t.Fatalf("scheduler accounting wrong: %+v", st)
	}
	// Once the queue drains, the flow accepts again.
	if err := flow.Send([]byte("again")); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
	net.Run(time.Second)
	if got := len(dst.Deliveries()); got != 1 {
		t.Fatalf("delivered %d after recovery, want 1", got)
	}
}

// TestPublicAPIRefusedSendKeepsOrderedFlowMoving refuses 18 of 20 sends
// of an ordered intrusion-tolerant flow at a 2-packet queue, then sends
// once more after the queue drained: on every route that message must
// arrive at once, numbered right after the two accepted ones. A refused
// send used to use up its flow sequence, and the destination held
// everything after the first unsent number back while it NACKed for it
// or waited out its deadline. On a flood, source-routed or multicast
// route the retry must also get past the source's duplicate table.
func TestPublicAPIRefusedSendKeepsOrderedFlowMoving(t *testing.T) {
	const group = GroupID(9)
	for _, tc := range []struct {
		name string
		spec FlowSpec
	}{
		{"unicast", FlowSpec{To: 4, ToPort: 100}},
		{"flood-deadline", FlowSpec{To: 4, ToPort: 100, Flood: true, Deadline: 200 * time.Millisecond}},
		{"disjoint", FlowSpec{To: 4, ToPort: 100, DisjointPaths: 2}},
		{"group-deadline", FlowSpec{Group: group, ToPort: 100, Deadline: 200 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := New(1, apiDiamond(), WithITCapacity(50, 2))
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer net.Close()
			dst, err := net.Connect(4, 100)
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			dst.Join(group)
			src, err := net.Connect(1, 0)
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			net.Run(time.Second)
			spec := tc.spec
			spec.Service, spec.Ordered = ITReliable, true
			flow, err := src.OpenFlow(spec)
			if err != nil {
				t.Fatalf("OpenFlow: %v", err)
			}
			refused := 0
			for i := 0; i < 20; i++ {
				if err := flow.Send([]byte{byte(i)}); errors.Is(err, ErrBackpressure) {
					refused++
				} else if err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if refused != 18 || flow.Sent() != 2 {
				t.Fatalf("refused %d of 20 sends, Sent() = %d; want 18 refused and 2 sent", refused, flow.Sent())
			}
			net.Run(2 * time.Second)
			if got := len(dst.Deliveries()); got != 2 {
				t.Fatalf("delivered %d, want the 2 accepted messages", got)
			}
			if err := flow.Send([]byte("again")); err != nil {
				t.Fatalf("send after drain: %v", err)
			}
			net.Run(time.Second)
			got := dst.Deliveries()
			if len(got) != 1 || got[0].Seq != 3 || string(got[0].Payload) != "again" {
				t.Fatalf("after the drain delivered %+v, want one message numbered 3", got)
			}
		})
	}
}

// TestPublicAPIDeliveryPayloadIsOwned keeps every payload an OnDeliver
// callback was handed, without copying, while later messages reuse the
// overlay's receive buffers: each must still read as it was sent.
func TestPublicAPIDeliveryPayloadIsOwned(t *testing.T) {
	net, err := New(1, apiDiamond())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer net.Close()
	dst, err := net.Connect(4, 100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	var kept [][]byte
	dst.OnDeliver(func(d Delivery) { kept = append(kept, d.Payload) })
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	flow, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100, Service: BestEffort})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		msg := make([]byte, 100)
		for j := range msg {
			msg[j] = byte(i)
		}
		if err := flow.Send(msg); err != nil {
			t.Fatalf("Send: %v", err)
		}
		net.Run(50 * time.Millisecond)
	}
	if len(kept) != n {
		t.Fatalf("delivered %d, want %d", len(kept), n)
	}
	for i, p := range kept {
		for _, b := range p {
			if b != byte(i) {
				t.Fatalf("message %d now reads %d: Delivery.Payload aliased a receive buffer", i, b)
			}
		}
	}
}

// TestNodeStatsFootprint reads a node's resident state through the public
// API: none before traffic, a unicast NM-Strikes flow leaves packets in the
// history of each hop's sending endpoint — the last 256, not every one sent,
// on a link this slow — and no duplicate-suppression state anywhere, and a
// flooded flow leaves one tracked flow, one window of bitmap, on every node
// it reaches, however many messages it sent.
func TestNodeStatsFootprint(t *testing.T) {
	net, err := New(1, apiDiamond())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	footprint := func(id NodeID) Footprint {
		st, ok := net.NodeStats(id)
		if !ok {
			t.Fatalf("no stats for node %d", id)
		}
		return st.Footprint
	}
	net.Run(time.Second)
	for id := NodeID(1); id <= 4; id++ {
		if fp := footprint(id); fp.DedupEntries != 0 || fp.HistoryPackets != 0 || fp.HistoryBytes != 0 {
			t.Fatalf("idle node %d holds %+v", id, fp)
		}
	}
	if _, err := net.Connect(4, 100); err != nil {
		t.Fatal(err)
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	video, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100, Service: RealTime})
	if err != nil {
		t.Fatal(err)
	}
	const sends, size = 400, 1000
	for i := 0; i < sends; i++ {
		if err := video.Send(make([]byte, size)); err != nil {
			t.Fatal(err)
		}
		net.Run(2 * time.Millisecond)
	}
	net.Run(time.Second)
	for _, id := range []NodeID{1, 2} {
		fp := footprint(id)
		if fp.HistoryPackets != 256 || fp.HistoryBytes != 256*size || fp.DedupEntries != 0 {
			t.Fatalf("node %d after %d sends at 500 pkt/s holds %+v, want 256 packets of %d bytes and no dedup flows", id, sends, fp, size)
		}
	}
	if fp := footprint(3); fp.HistoryPackets != 0 || fp.WindowBytes >= footprint(2).WindowBytes {
		t.Fatalf("node 3, off the path, holds %+v", fp)
	}
	before := map[NodeID]int{}
	for id := NodeID(1); id <= 4; id++ {
		before[id] = footprint(id).WindowBytes
	}
	flood, err := src.OpenFlow(FlowSpec{To: 4, ToPort: 100, Flood: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := flood.Send(nil); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(time.Second)
	const window = 1 << 14 / 8
	for id := NodeID(1); id <= 4; id++ {
		if fp := footprint(id); fp.DedupEntries != 1 || fp.WindowBytes != before[id]+window {
			t.Fatalf("node %d after 50 flooded messages tracks %d flows in %d more window bytes, want 1 in %d",
				id, fp.DedupEntries, fp.WindowBytes-before[id], window)
		}
	}
}

// TestNodeStatsControl reads the flooding account through the public API:
// a quiet diamond floods advertisements round its cycle, so every node both
// passes news on and discards copies; nothing is resynced until a link is
// cut and restored, and then each endpoint pushes what it retains — one
// advertisement per other node — once.
func TestNodeStatsControl(t *testing.T) {
	net, err := New(1, apiDiamond())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	control := func(id NodeID) ControlStats {
		st, ok := net.NodeStats(id)
		if !ok {
			t.Fatalf("no stats for node %d", id)
		}
		return st.Control
	}
	if _, err := net.Connect(4, 100); err != nil {
		t.Fatal(err)
	}
	net.Run(5 * time.Second)
	for id := NodeID(1); id <= 4; id++ {
		if c := control(id); c.FloodedLSAs == 0 || c.StaleLSAs == 0 || c.ResyncLSAs != 0 || c.ResyncAnnouncements != 0 {
			t.Fatalf("quiet node %d: %+v", id, c)
		}
	}
	if err := net.CutLink(1, 2); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Second)
	if err := net.RestoreLink(1, 2); err != nil {
		t.Fatal(err)
	}
	net.Run(3 * time.Second)
	for _, id := range []NodeID{1, 2} {
		if c := control(id); c.ResyncLSAs != 3 || c.ResyncAnnouncements == 0 || c.FloodedAnnouncements == 0 {
			t.Fatalf("endpoint %d after one recovery: %+v", id, c)
		}
	}
	if c := control(3); c.ResyncLSAs != 0 {
		t.Fatalf("bystander 3 resynced: %+v", c)
	}
}

// tailCopies sends one message on a reliable ordered flow (ordered, no
// deadline) and lets its source re-send it three times in two seconds,
// the tail protection of end-to-end recovery. It returns what the
// destination counted and what the source node suppressed.
func tailCopies(t *testing.T, spec FlowSpec, opts ...Option) (dst ClientStats, srcNode NodeStats, auth uint64) {
	t.Helper()
	net, err := New(11, apiDiamond(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	d, err := net.Connect(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec.To, spec.ToPort, spec.Ordered = 4, 100, true
	flow, err := src.OpenFlow(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := flow.Send([]byte("cmd")); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Second)
	for id := NodeID(1); id <= 4; id++ {
		st, _ := net.NodeStats(id)
		auth += st.DroppedAuth
	}
	srcNode, _ = net.NodeStats(1)
	return d.Stats(), srcNode, auth
}

// TestRecoveryCopiesOfSignedFlowsVerify re-sends a message of a signed
// flow: the copy carries the retransmission mark, which the signature
// covers, so its source signs it again and every hop accepts it. Signed
// as originated, all three copies were refused at the next hop.
func TestRecoveryCopiesOfSignedFlowsVerify(t *testing.T) {
	for _, service := range []LinkService{ITPriority, ITReliable} {
		dst, _, auth := tailCopies(t, FlowSpec{Service: service}, WithAuthentication([]byte("k")))
		if dst.Received != 1 || dst.Duplicates != 3 || auth != 0 {
			t.Fatalf("service %v: %d received, %d copies arrived, %d refused; want 1, 3, 0", service, dst.Received, dst.Duplicates, auth)
		}
	}
}

// TestRecoveryCopiesOfRedundantFlowsLeaveTheSource re-sends a message of
// a reliable flow routed by flooding, a dissemination graph or disjoint
// paths: the copies take the link-state route, which no duplicate table
// judges. On the flow's own route the source's table, which saw the
// sequence when it was originated, suppressed every copy.
func TestRecoveryCopiesOfRedundantFlowsLeaveTheSource(t *testing.T) {
	for _, spec := range []FlowSpec{{Flood: true}, {DissemGraph: ProblemSource}, {DisjointPaths: 2}} {
		dst, src, _ := tailCopies(t, spec)
		if dst.Received != 1 || dst.Duplicates != 3 || src.Duplicates != 0 {
			t.Fatalf("%+v: %d received, %d copies arrived, %d suppressed at the source; want 1, 3, 0", spec, dst.Received, dst.Duplicates, src.Duplicates)
		}
	}
}

// TestRuntimeJoinReachesSourceRoutedFlows opens a two-disjoint-path flow
// on the line 1–2–3, which has one path, then joins node 4 with links
// 1–4 and 4–3. The flow's source mask is cached per view version, and the
// join moves that version, so the messages sent after it take the new
// second path through node 4 as well.
func TestRuntimeJoinReachesSourceRoutedFlows(t *testing.T) {
	ms := time.Millisecond
	net, err := New(35, []Link{{A: 1, B: 2, Latency: 10 * ms}, {A: 2, B: 3, Latency: 10 * ms}})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	dst, err := net.Connect(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := src.OpenFlow(FlowSpec{To: 3, ToPort: 100, DisjointPaths: 2})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	send := func() {
		for i := 0; i < n; i++ {
			if err := flow.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		net.Run(time.Second)
	}
	send()
	if err := net.JoinNode(4, 0, Link{A: 1, B: 4, Latency: 10 * ms}, Link{A: 4, B: 3, Latency: 10 * ms}); err != nil {
		t.Fatal(err)
	}
	net.Settle()
	send()
	if got := len(dst.Deliveries()); got != 2*n {
		t.Fatalf("delivered %d messages, want %d", got, 2*n)
	}
	if st, ok := net.NodeStats(4); !ok || st.Forwarded == 0 {
		t.Fatalf("joined node 4 forwarded nothing of the flow (stats %+v)", st)
	}
}

// TestJoinTopNodeID joins the largest node ID at runtime, where every
// per-node table grows to its full 65 536 entries: the fleet accepts its
// floods (its group announcement reaches node 1), admits it as a member,
// finds its link, and delivers a flow to it.
func TestJoinTopNodeID(t *testing.T) {
	const top, group = NodeID(0xffff), GroupID(5)
	net, err := New(1, apiDiamond(), WithMembership())
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.Run(500 * time.Millisecond)
	if err := net.JoinNode(top, 4, Link{A: 4, B: top, Latency: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	net.Run(2 * time.Second)
	dst, err := net.Connect(top, 100)
	if err != nil {
		t.Fatal(err)
	}
	dst.Join(group)
	net.Run(time.Second)
	n1 := net.sim.Node(1)
	if m := n1.Groups().Members(group); len(m) != 1 || m[0] != top {
		t.Fatalf("node 1 sees group %v held by %v, want the top ID's announcement", group, m)
	}
	if !n1.Membership().IsMember(top) {
		t.Fatalf("node 1 does not count %v a member (members %v)", top, net.Members(1))
	}
	l, ok := n1.View().G.LinkBetween(top, 4)
	if !ok || !n1.View().Usable(l.ID) {
		t.Fatalf("node 1 finds link %v-4 ok=%v usable=%v", top, ok, ok && n1.View().Usable(l.ID))
	}
	src, err := net.Connect(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := src.OpenFlow(FlowSpec{To: top, ToPort: 100})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := flow.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(time.Second)
	if got := len(dst.Deliveries()); got != 10 {
		t.Fatalf("delivered %d of 10 messages to %v", got, top)
	}
}

// TestNodeTableFootprint counts the per-node tables of a world with
// sparse IDs {1, 2, 0xffff}, where every table that holds the top ID spans
// the whole ID space. Node 1's tables that are read by origin or member ID
// grow to 65 536 entries — the graph index (4 bytes an entry), each of the
// two flood databases' sequences (8) and retained payloads (24), the
// directory (8) and the keyring (8) — while its neighbor and peer tables
// stay as long as its largest neighbor ID. That is the worst case: 84
// bytes an entry, 5.25 MiB.
func TestNodeTableFootprint(t *testing.T) {
	const top = NodeID(0xffff)
	ms := time.Millisecond
	net, err := New(1, []Link{{A: 1, B: 2, Latency: 10 * ms}, {A: 2, B: top, Latency: 10 * ms}},
		WithMembership(), WithAuthentication([]byte("sparse")))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.Run(2 * time.Second)
	st, ok := net.NodeStats(1)
	if !ok {
		t.Fatal("no stats for node 1")
	}
	const full, worst = 1 << 16, 84 << 16
	if got := st.Footprint.NodeTableBytes; got < worst-full || got > worst+full {
		t.Fatalf("node 1's per-node tables hold %d bytes, want the worst case %d (within %d)", got, worst, full)
	}
	dense, err := New(1, apiDiamond(), WithMembership(), WithAuthentication([]byte("dense")))
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	dense.Run(2 * time.Second)
	if st, _ := dense.NodeStats(1); st.Footprint.NodeTableBytes > 1<<10 {
		t.Fatalf("a four-node world's tables hold %d bytes", st.Footprint.NodeTableBytes)
	}
}
