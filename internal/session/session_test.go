package session

import (
	"bytes"
	"math/rand/v2"
	"testing"
	"time"

	"sonet/internal/node"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// testWorld is a two-node overlay (10 ms link) over a direct in-test
// fabric with optional Bernoulli loss, avoiding the core package (which
// imports session).
type testWorld struct {
	sched *sim.Scheduler
	graph *topology.Graph
	nodes map[wire.NodeID]*node.Node
	loss  float64
	rng   *rand.Rand
	// burst, when set, drops every frame at instants where it returns
	// true — a deterministic time-windowed burst-loss model.
	burst func(time.Duration) bool
}

type testPort struct {
	w    *testWorld
	self wire.NodeID
}

func (p *testPort) Send(neighbor wire.NodeID, _ uint8, data []byte) {
	if p.w.loss > 0 && p.w.rng.Float64() < p.w.loss {
		return
	}
	if p.w.burst != nil && p.w.burst(p.w.sched.Now()) {
		return
	}
	buf := append([]byte(nil), data...)
	from := p.self
	p.w.sched.After(10*time.Millisecond, func() {
		if dst, ok := p.w.nodes[neighbor]; ok {
			dst.HandleUnderlay(from, buf)
		}
	})
}

func (p *testPort) PathCount(wire.NodeID) int { return 1 }

// RunFor advances virtual time.
func (w *testWorld) RunFor(d time.Duration) { w.sched.RunFor(d) }

// Sched exposes the scheduler for timed sends.
func (w *testWorld) Sched() *sim.Scheduler { return w.sched }

func world(t *testing.T, loss float64) (*testWorld, *Manager, *Manager) {
	t.Helper()
	g := topology.NewGraph()
	if _, err := g.AddLink(1, 2, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler(99)
	w := &testWorld{
		sched: sched,
		graph: g,
		nodes: make(map[wire.NodeID]*node.Node),
		loss:  loss,
		rng:   rand.New(rand.NewPCG(7, 7)),
	}
	mgrs := make(map[wire.NodeID]*Manager, 2)
	for _, id := range []wire.NodeID{1, 2} {
		n, err := node.New(node.Config{
			ID:       id,
			Clock:    sched,
			Underlay: &testPort{w: w, self: id},
			Graph:    g,
		})
		if err != nil {
			t.Fatalf("node.New: %v", err)
		}
		w.nodes[id] = n
		mgrs[id] = NewManager(n)
	}
	for _, n := range w.nodes {
		n.Start()
	}
	t.Cleanup(func() {
		for _, n := range w.nodes {
			n.Stop()
		}
	})
	w.RunFor(time.Second)
	return w, mgrs[1], mgrs[2]
}

func TestFlowsGetDistinctSourcePorts(t *testing.T) {
	_, m1, _ := world(t, 0)
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	f1, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	f2, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	if f1.srcPort == f2.srcPort {
		t.Fatalf("flows share source port %d", f1.srcPort)
	}
	if f1.srcPort == c.Port() || f2.srcPort == c.Port() {
		t.Fatal("flow port collides with client port")
	}
}

func TestTwoFlowsSameDestinationDoNotCollide(t *testing.T) {
	// Redundant routing dedups by (src, srcPort, …, seq): two flows with
	// identical destinations and overlapping sequence numbers must both
	// deliver.
	s, m1, m2 := world(t, 0)
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	fa, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, Flood: true})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	fb, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, Flood: true})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := fa.Send([]byte("a")); err != nil {
			t.Fatalf("Send: %v", err)
		}
		if err := fb.Send([]byte("b")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	s.RunFor(time.Second)
	if got := len(dst.Deliveries()); got != 10 {
		t.Fatalf("delivered %d, want 10 (flows collided in dedup)", got)
	}
}

func TestEndToEndRecoveryRepairsDroppedPacket(t *testing.T) {
	// A reliable (ordered, no deadline) flow must survive packets that
	// vanish wholesale — here the first transmission window crosses a
	// 30% lossy link with best-effort hops, so recovery is purely the
	// session layer's NACK machinery.
	s, m1, m2 := world(t, 0.3)
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	// Best-effort link protocol: the hop does not recover; end-to-end
	// NACKs must.
	flow, err := c.OpenFlow(FlowSpec{
		DstNode: 2, DstPort: 100,
		LinkProto: wire.LPBestEffort, Ordered: true,
	})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		i := i
		s.Sched().After(time.Duration(i)*10*time.Millisecond, func() {
			if err := flow.Send([]byte{byte(i)}); err != nil {
				t.Errorf("Send: %v", err)
			}
		})
	}
	s.RunFor(30 * time.Second)
	got := dst.Deliveries()
	if len(got) != n {
		t.Fatalf("delivered %d/%d over 30%% loss with e2e recovery", len(got), n)
	}
	for i, d := range got {
		if d.Seq != uint32(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, d.Seq)
		}
	}
	// Recovery happened: some deliveries carry the retransmission mark.
	recovered := 0
	for _, d := range got {
		if d.Retransmitted {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("no packet was recovered end to end")
	}
}

func TestEndToEndRecoveryGivesUpAfterMaxTries(t *testing.T) {
	s, m1, m2 := world(t, 0)
	m2.NackMaxTries = 3
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	flow, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, Ordered: true})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	// Send seq 1..3, then wipe the source history so NACKs cannot be
	// answered, then send 4: the gap never fills and must be flushed.
	for i := 0; i < 3; i++ {
		if err := flow.Send([]byte("x")); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	s.RunFor(100 * time.Millisecond)
	// Simulate total loss of seq 4 by forging the flow sequence forward:
	// the destination sees 5 after 3 and waits for 4 forever.
	flow.seq++ // 4 is never sent
	flow.history = nil
	if err := flow.Send([]byte("y")); err != nil { // seq 5
		t.Fatalf("Send: %v", err)
	}
	s.RunFor(10 * time.Second)
	got := dst.Deliveries()
	if len(got) != 4 {
		t.Fatalf("delivered %d, want 4 (gap flushed after give-up)", len(got))
	}
	last := got[len(got)-1]
	if last.Seq != 5 {
		t.Fatalf("last delivered seq %d, want 5", last.Seq)
	}
}

func TestOrderedDeadlineLateDiscard(t *testing.T) {
	s, m1, m2 := world(t, 0)
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	// Deadline shorter than the 10 ms link: everything is late.
	flow, err := c.OpenFlow(FlowSpec{
		DstNode: 2, DstPort: 100,
		Ordered: true, Deadline: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := flow.Send(nil); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	s.RunFor(time.Second)
	// Held packets flush at their (already passed) deadline on arrival;
	// they deliver immediately rather than stall.
	if got := len(dst.Deliveries()); got != 3 {
		t.Fatalf("delivered %d, want 3 immediate flushes", got)
	}
}

// TestOrderedGroupFlowNeedsDeadline: a group flow keeps no history and
// its destinations send no NACKs, so an ordered one without a deadline
// would hold everything behind its first loss for the life of the client.
// OpenFlow refuses it and keeps accepting the ordered group flows that
// have a deadline to flush by.
func TestOrderedGroupFlowNeedsDeadline(t *testing.T) {
	_, m1, _ := world(t, 0)
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []FlowSpec{
		{Group: 5, DstPort: 100, Ordered: true},
		{Group: 5, DstPort: 100, Ordered: true, Anycast: true},
	} {
		if _, err := c.OpenFlow(spec); err == nil {
			t.Errorf("OpenFlow(%+v) accepted an ordered group flow with no deadline", spec)
		}
	}
	for _, spec := range []FlowSpec{
		{Group: 5, DstPort: 100, Ordered: true, Deadline: 100 * time.Millisecond},
		{Group: 5, DstPort: 100},
		{DstNode: 2, DstPort: 100, Ordered: true},
	} {
		if _, err := c.OpenFlow(spec); err != nil {
			t.Errorf("OpenFlow(%+v): %v", spec, err)
		}
	}
}

// TestOpenFlowRefusesUnknownLinkProto: a flow spec can arrive from a
// client connection with any link-protocol byte, and a node has an
// endpoint slot only for the defined services.
func TestOpenFlowRefusesUnknownLinkProto(t *testing.T) {
	_, m1, _ := world(t, 0)
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, lp := range []wire.LinkProtoID{wire.LPITReliable + 1, 0xff} {
		if _, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, LinkProto: lp}); err == nil {
			t.Errorf("OpenFlow accepted link protocol %v", lp)
		}
	}
	for _, lp := range []wire.LinkProtoID{0, wire.LPBestEffort, wire.LPITReliable} {
		if _, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, LinkProto: lp}); err != nil {
			t.Errorf("OpenFlow with link protocol %v: %v", lp, err)
		}
	}
}

// TestOpenFlowRefusesNegativeDeadline: an ordered unicast flow with a
// negative deadline would get neither end-to-end recovery (which needs a
// zero deadline) nor a deadline flush (which needs a positive one), so
// its first loss would hold it forever.
func TestOpenFlowRefusesNegativeDeadline(t *testing.T) {
	_, m1, _ := world(t, 0)
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, Ordered: true, Deadline: -time.Millisecond}); err == nil {
		t.Fatal("OpenFlow accepted a negative deadline")
	}
}

// TestOpenFlowRefusesNegativeDisjointK: a path count below zero means
// nothing.
func TestOpenFlowRefusesNegativeDisjointK(t *testing.T) {
	_, m1, _ := world(t, 0)
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, DisjointK: -1}); err == nil {
		t.Fatal("OpenFlow accepted a negative disjoint path count")
	}
}

func TestClientCloseReleasesFlowPorts(t *testing.T) {
	_, m1, _ := world(t, 0)
	c, err := m1.Connect(500)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	f, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	port := f.srcPort
	if _, ok := m1.flowPorts[port]; !ok {
		t.Fatal("flow port not registered")
	}
	c.Close()
	if _, ok := m1.flowPorts[port]; ok {
		t.Fatal("flow port leaked after client close")
	}
	if _, err := m1.Connect(500); err != nil {
		t.Fatalf("port 500 not released: %v", err)
	}
}

func TestSendOnClosedClient(t *testing.T) {
	_, m1, _ := world(t, 0)
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	f, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	c.Close()
	if err := f.Send(nil); err == nil {
		t.Fatal("send on closed client succeeded")
	}
}

func TestNackEncodingRoundTrip(t *testing.T) {
	k := &nack{origin: 7, port: 900, seqs: []uint32{3, 5, 1 << 30}}
	got, err := unmarshalNack(k.marshal())
	if err != nil {
		t.Fatalf("unmarshalNack: %v", err)
	}
	if got.origin != k.origin || got.port != k.port || len(got.seqs) != 3 {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range k.seqs {
		if got.seqs[i] != k.seqs[i] {
			t.Fatalf("seqs[%d] = %d, want %d", i, got.seqs[i], k.seqs[i])
		}
	}
	if _, err := unmarshalNack([]byte{1, 2}); err == nil {
		t.Fatal("truncated nack accepted")
	}
	if _, err := unmarshalNack([]byte{0, 7, 3, 132, 0, 9}); err == nil {
		t.Fatal("nack with missing seqs accepted")
	}
}

// FuzzNackDecode feeds arbitrary payloads to the NACK decoder, which reads
// bytes any overlay node can send: it must not panic, and whatever it
// accepts must re-marshal to exactly the bytes it consumed.
func FuzzNackDecode(f *testing.F) {
	for _, k := range []nack{
		{origin: 7, port: 900, seqs: []uint32{3, 5, 1 << 30}},
		{origin: 1, port: 2},
		{origin: 65535, port: 65535, seqs: make([]uint32, maxNackSeqs)},
	} {
		b := k.marshal()
		f.Add(b)
		for _, cut := range []int{1, nackHeaderLen - 1, nackHeaderLen, len(b) - 1} {
			if cut >= 0 && cut < len(b) {
				f.Add(b[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		k, err := unmarshalNack(src)
		if err != nil {
			return
		}
		consumed := nackHeaderLen + 4*len(k.seqs)
		if got := k.marshal(); !bytes.Equal(got, src[:consumed]) {
			t.Fatalf("decoded %+v re-marshals to %x, consumed %x", k, got, src[:consumed])
		}
	})
}

func TestEphemeralPortWrapAround(t *testing.T) {
	_, m1, _ := world(t, 0)
	m1.nextEphemeral = 65534
	a, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	b, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if a.Port() == 0 || b.Port() == 0 || c.Port() == 0 {
		t.Fatal("allocated port zero")
	}
	if a.Port() == c.Port() || b.Port() == c.Port() {
		t.Fatal("wrapped allocation collided")
	}
	if c.Port() != firstEphemeral {
		t.Fatalf("wrapped to port %d, want the bottom of the range %d", c.Port(), firstEphemeral)
	}
}

// TestEphemeralPortsExhausted takes every ephemeral port with flows: the
// next OpenFlow and Connect(0) must fail rather than search forever, and
// a closed flow's port is free again.
func TestEphemeralPortsExhausted(t *testing.T) {
	_, m1, _ := world(t, 0)
	c, err := m1.Connect(500)
	if err != nil {
		t.Fatal(err)
	}
	var flows []*Flow
	done := make(chan error, 1)
	go func() {
		for {
			f, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100})
			if err != nil {
				done <- err
				return
			}
			flows = append(flows, f)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("OpenFlow never reported the ephemeral range exhausted")
	}
	if want := 1<<16 - int(firstEphemeral); len(flows) != want {
		t.Fatalf("opened %d flows, want one per ephemeral port (%d)", len(flows), want)
	}
	for _, f := range flows {
		if f.srcPort < firstEphemeral {
			t.Fatalf("flow got port %d, outside the ephemeral range", f.srcPort)
		}
	}
	if _, err := m1.Connect(0); err == nil {
		t.Fatal("Connect(0) succeeded with every ephemeral port taken")
	}
	freed := flows[100].srcPort
	flows[100].Close()
	if len(c.flows) != len(flows)-1 {
		t.Fatalf("client lists %d flows after one closed, want %d", len(c.flows), len(flows)-1)
	}
	f, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100})
	if err != nil {
		t.Fatalf("OpenFlow after a close: %v", err)
	}
	if f.srcPort != freed {
		t.Fatalf("OpenFlow after a close got port %d, want the freed %d", f.srcPort, freed)
	}
}

func TestFlowSpecVariantsInPackage(t *testing.T) {
	s, m1, m2 := world(t, 0)
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatal(err)
	}
	var got []Delivery
	dst.OnDeliver(func(d Delivery) { got = append(got, d) })
	dst.Join(77)
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	// Multicast, anycast, and disjoint-path flows in one world.
	mc, err := c.OpenFlow(FlowSpec{Group: 77, DstPort: 100})
	if err != nil {
		t.Fatal(err)
	}
	ac, err := c.OpenFlow(FlowSpec{Group: 77, Anycast: true, DstPort: 100})
	if err != nil {
		t.Fatal(err)
	}
	dj, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, DisjointK: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := mc.Send([]byte("m")); err != nil {
		t.Fatalf("multicast send: %v", err)
	}
	if err := ac.Send([]byte("a")); err != nil {
		t.Fatalf("anycast send: %v", err)
	}
	if err := dj.Send([]byte("d")); err != nil {
		t.Fatalf("disjoint send: %v", err)
	}
	s.RunFor(time.Second)
	if len(got) != 3 {
		t.Fatalf("delivered %d, want 3", len(got))
	}
	if dj.Spec().DisjointK != 1 || dj.Stats().Sent != 1 {
		t.Fatalf("flow accessors: %+v %+v", dj.Spec(), dj.Stats())
	}
	dst.Leave(77)
	s.RunFor(time.Second)
	if err := mc.Send([]byte("m2")); err != nil {
		t.Fatalf("send after leave: %v", err)
	}
	s.RunFor(time.Second)
	if len(got) != 3 {
		t.Fatalf("delivered to departed member: %d", len(got))
	}
	if m1.Node() == nil || m1.NoClientDrops() != 0 {
		t.Fatalf("manager accessors: drops=%d", m1.NoClientDrops())
	}
}

func TestHistoryEviction(t *testing.T) {
	s, m1, m2 := world(t, 0)
	m1.HistoryLimit = 8
	if _, err := m2.Connect(100); err != nil {
		t.Fatal(err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := flow.Send(nil); err != nil {
			t.Fatal(err)
		}
	}
	s.RunFor(time.Second)
	if got := flow.history.Len(); got != 8 {
		t.Fatalf("history holds %d entries, want 8", got)
	}
	if _, ok := flow.history.Get(20); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := flow.history.Get(12); ok {
		t.Fatal("oldest entry retained")
	}
	// A NACK for an evicted sequence is silently unanswerable.
	flow.resend(1)
	flow.resend(20) // answerable
	s.RunFor(time.Second)
}

func TestDissemFlowInPackage(t *testing.T) {
	s, m1, m2 := world(t, 0)
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	flow, err := c.OpenFlow(FlowSpec{
		DstNode: 2, DstPort: 100,
		Dissem: topology.ProblemSource,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := flow.Send([]byte("x")); err != nil {
		t.Fatalf("dissem send: %v", err)
	}
	s.RunFor(time.Second)
	if got := len(dst.Deliveries()); got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	// The mask is cached across sends while the view is unchanged.
	if !flow.maskValid {
		t.Fatal("mask not cached")
	}
	if err := flow.Send([]byte("y")); err != nil {
		t.Fatalf("second send: %v", err)
	}
}

func TestFlowClose(t *testing.T) {
	s, m1, m2 := world(t, 0)
	if _, err := m2.Connect(100); err != nil {
		t.Fatal(err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Send(nil); err != nil {
		t.Fatal(err)
	}
	s.RunFor(time.Second)
	port := f.srcPort
	f.Close()
	f.Close() // idempotent
	if err := f.Send(nil); err == nil {
		t.Fatal("send on closed flow succeeded")
	}
	if _, ok := m1.flowPorts[port]; ok {
		t.Fatal("flow port retained after Close")
	}
	if f.history != nil {
		t.Fatal("history retained after Close")
	}
	// The client itself stays usable.
	f2, err := c.OpenFlow(FlowSpec{DstNode: 2, DstPort: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Send(nil); err != nil {
		t.Fatal(err)
	}
}

func TestReliableStreamSurvivesSustainedBurstLoss(t *testing.T) {
	// Deterministic burst storms: every 500 ms the link goes totally dark
	// for 200 ms, for the whole 5 s send window. Bursts swallow data,
	// NACKs, and retransmissions alike; the reliable stream must still
	// deliver everything, in order, without duplicates.
	s, m1, m2 := world(t, 0)
	s.burst = func(now time.Duration) bool {
		if now > 6*time.Second {
			return false // storms end; recovery may finish
		}
		return now%(500*time.Millisecond) < 200*time.Millisecond
	}
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	flow, err := c.OpenFlow(FlowSpec{
		DstNode: 2, DstPort: 100,
		LinkProto: wire.LPBestEffort, Ordered: true,
	})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		s.Sched().After(time.Duration(i)*25*time.Millisecond, func() {
			if err := flow.Send([]byte{byte(i)}); err != nil {
				t.Errorf("Send: %v", err)
			}
		})
	}
	s.RunFor(60 * time.Second)
	got := dst.Deliveries()
	if len(got) != n {
		t.Fatalf("delivered %d/%d through burst storms", len(got), n)
	}
	for i, d := range got {
		if d.Seq != uint32(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, d.Seq)
		}
	}
	recovered := 0
	for _, d := range got {
		if d.Retransmitted {
			recovered++
		}
	}
	if recovered == 0 {
		t.Fatal("bursts swallowed nothing? no packet was recovered")
	}
}

func TestReliableStreamSurvivesDestinationRestart(t *testing.T) {
	// Mid-stream the destination node crashes with total state loss and a
	// fresh incarnation (new node, new session manager, new client) takes
	// its place. The reborn destination has no reorder state, so its first
	// arrival opens a gap back to seq 1; end-to-end NACK recovery against
	// the source's retained history must replay the entire stream to the
	// new client, in order.
	s, m1, m2 := world(t, 0)
	if _, err := m2.Connect(100); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	c, err := m1.Connect(0)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	flow, err := c.OpenFlow(FlowSpec{
		DstNode: 2, DstPort: 100,
		LinkProto: wire.LPBestEffort, Ordered: true,
	})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	const n = 150
	send := func(i int) {
		if err := flow.Send([]byte{byte(i)}); err != nil {
			t.Errorf("Send: %v", err)
		}
	}
	// Phase 1: seq 1..50 delivered to the first incarnation.
	for i := 0; i < 50; i++ {
		i := i
		s.Sched().After(time.Duration(i)*10*time.Millisecond, func() { send(i) })
	}
	s.RunFor(time.Second)

	// Crash: the node vanishes from the underlay, its manager closes.
	s.nodes[2].Stop()
	delete(s.nodes, 2)
	m2.Close()

	// Phase 2: seq 51..100 sent into the void while the node is down.
	for i := 50; i < 100; i++ {
		i := i
		s.Sched().After(time.Duration(i-50)*10*time.Millisecond, func() { send(i) })
	}
	s.RunFor(time.Second)

	// Restart: a brand-new incarnation with zero session state.
	n2, err := node.New(node.Config{
		ID: 2, Clock: s.Sched(),
		Underlay: &testPort{w: s, self: 2},
		Graph:    s.graph,
	})
	if err != nil {
		t.Fatalf("node.New: %v", err)
	}
	s.nodes[2] = n2
	m2b := NewManager(n2)
	n2.Start()
	dst2, err := m2b.Connect(100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}

	// Phase 3: seq 101..150 reach the new incarnation and expose the gap.
	for i := 100; i < n; i++ {
		i := i
		s.Sched().After(time.Duration(i-100)*10*time.Millisecond, func() { send(i) })
	}
	s.RunFor(60 * time.Second)

	got := dst2.Deliveries()
	if len(got) != n {
		t.Fatalf("new incarnation delivered %d/%d (gap not repaired from history)", len(got), n)
	}
	for i, d := range got {
		if d.Seq != uint32(i+1) {
			t.Fatalf("out of order at %d: seq %d", i, d.Seq)
		}
	}
	if !got[0].Retransmitted {
		t.Fatal("seq 1 reached the new incarnation without retransmission?")
	}
}

// TestOrderedInSequenceFastPath feeds the hold-back buffer by hand: a
// packet that is next in sequence is delivered at once — nothing held, no
// deadline timer armed and stopped again — and still releases whatever
// was held behind it, with the accounting of the slow path. Whatever is
// held, the flow arms one timer.
func TestOrderedInSequenceFastPath(t *testing.T) {
	s, _, m2 := world(t, 0)
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	var got []Delivery
	dst.OnDeliver(func(d Delivery) { got = append(got, d) })
	now := s.sched.Now()
	pkt := func(seq uint32, flags wire.Flags) *wire.Packet {
		return &wire.Packet{
			Type: wire.PTData, Src: 1, SrcPort: 50000, Dst: 2, DstPort: 100,
			FlowSeq: seq, Flags: wire.FOrdered | flags,
			Origin: now - 3*time.Millisecond, Deadline: 200 * time.Millisecond,
		}
	}
	idle := s.sched.Pending()
	for seq := uint32(1); seq <= 3; seq++ {
		dst.receive(pkt(seq, 0))
	}
	st := dst.reorder[flowID{src: 1, srcPort: 50000}]
	if len(got) != 3 || st.hold.Next() != 4 || st.hold.Len() != 0 {
		t.Fatalf("in-sequence packets: delivered %d, next %d, held %d; want 3, 4, 0", len(got), st.hold.Next(), st.hold.Len())
	}
	if armed := s.sched.Pending() - idle; armed != 0 {
		t.Fatalf("in-sequence packets armed %d timers", armed)
	}
	if got[2].Latency != 3*time.Millisecond {
		t.Fatalf("latency %v, want now - origin = 3ms", got[2].Latency)
	}
	// 5 and 6 wait for 4 under the flow's one deadline timer.
	dst.receive(pkt(5, 0))
	dst.receive(pkt(6, 0))
	dst.receive(pkt(6, 0)) // duplicate of a held packet
	if len(got) != 3 || st.hold.Len() != 2 || s.sched.Pending()-idle != 1 {
		t.Fatalf("out-of-sequence packets: delivered %d, held %d, timers %d; want 3, 2, 1",
			len(got), st.hold.Len(), s.sched.Pending()-idle)
	}
	dst.receive(pkt(4, wire.FRetrans))
	if len(got) != 6 || st.hold.Next() != 7 || st.hold.Len() != 0 || s.sched.Pending() != idle {
		t.Fatalf("gap filled: delivered %d, next %d, held %d, timers %d; want 6, 7, 0, 0",
			len(got), st.hold.Next(), st.hold.Len(), s.sched.Pending()-idle)
	}
	for i, d := range got {
		if d.Seq != uint32(i+1) {
			t.Fatalf("delivery %d has seq %d", i, d.Seq)
		}
	}
	if !got[3].Retransmitted {
		t.Fatal("recovered packet delivered without its Retransmitted mark")
	}
	dst.receive(pkt(2, wire.FRetrans)) // redundant recovery copy
	dst.receive(pkt(3, 0))             // original arriving after the flush
	if stats := dst.Stats(); stats.Received != 6 || stats.Duplicates != 2 || stats.Late != 1 {
		t.Fatalf("received %d, duplicates %d, late %d; want 6, 2, 1", stats.Received, stats.Duplicates, stats.Late)
	}
}

// TestReceiveBorrowsPacket hands receive packets decoded into one reused
// buffer, the way a shard's receive path does, and overwrites the buffer
// as soon as receive returns. What the client still holds — packets held
// back for ordering, deliveries queued for Deliveries() — must be its own
// copy; Close returns the buffers of whatever was still held.
func TestReceiveBorrowsPacket(t *testing.T) {
	s, _, m2 := world(t, 0)
	dst, err := m2.Connect(100)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	rx := make([]byte, 64)
	borrowed := func(seq uint32) *wire.Packet {
		for i := range rx {
			rx[i] = byte(seq)
		}
		return &wire.Packet{
			Type: wire.PTData, Src: 1, SrcPort: 50000, Dst: 2, DstPort: 100,
			FlowSeq: seq, Flags: wire.FOrdered, Origin: s.sched.Now(), Payload: rx,
		}
	}
	intact := func(d Delivery) {
		t.Helper()
		if len(d.Payload) != len(rx) {
			t.Fatalf("seq %d: payload %d bytes, want %d", d.Seq, len(d.Payload), len(rx))
		}
		for _, b := range d.Payload {
			if b != byte(d.Seq) {
				t.Fatalf("seq %d delivered with payload byte %d: it aliased the receive buffer", d.Seq, b)
			}
		}
	}
	pool := wire.DefaultBufPool.Stats()
	before := pool.Snapshot()
	// 3 and 2 are held behind 1; 1 drains all three into the queue.
	for _, seq := range []uint32{3, 2, 1} {
		dst.receive(borrowed(seq))
	}
	borrowed(9) // the next datagram lands in the receive buffer
	got := dst.Deliveries()
	if len(got) != 3 {
		t.Fatalf("delivered %d, want 3", len(got))
	}
	for i, d := range got {
		if d.Seq != uint32(i+1) {
			t.Fatalf("delivery %d has seq %d", i, d.Seq)
		}
		intact(d)
	}
	// 5 stays held; Close must give its buffer back.
	dst.receive(borrowed(5))
	dst.Close()
	after := pool.Snapshot()
	const class = 256 // a 64-byte payload is captured into the smallest class
	gets := (after.Hits + after.Misses) - (before.Hits + before.Misses)
	if gets != 3 || after.Recycled-before.Recycled != gets*class {
		t.Fatalf("held packets drew %d buffers and returned %d, want 3 and 3",
			gets, (after.Recycled-before.Recycled)/class)
	}
}

// TestReentrantSendOnDeliveringFlow: a local OnDeliver callback sends on
// the very flow that is delivering to it, while the outer send is still
// routing. The inner send takes the next sequence and a packet of its
// own, so both messages arrive intact and in order, and a reliable flow's
// history keeps each under its own number.
func TestReentrantSendOnDeliveringFlow(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec FlowSpec
	}{
		{"ReliableOrdered", FlowSpec{DstNode: 1, DstPort: 700, Ordered: true}},
		{"BestEffort", FlowSpec{DstNode: 1, DstPort: 700}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m1, _ := world(t, 0)
			dst, err := m1.Connect(700)
			if err != nil {
				t.Fatal(err)
			}
			src, err := m1.Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			flow, err := src.OpenFlow(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			var seqs []uint32
			dst.OnDeliver(func(d Delivery) {
				got = append(got, string(d.Payload))
				seqs = append(seqs, d.Seq)
				if len(got) == 1 {
					if err := flow.Send([]byte("inner")); err != nil {
						t.Errorf("inner Send: %v", err)
					}
				}
			})
			if err := flow.Send([]byte("outer")); err != nil {
				t.Fatalf("outer Send: %v", err)
			}
			s.RunFor(2 * time.Second)
			if len(got) != 2 || got[0] != "outer" || got[1] != "inner" || seqs[0] != 1 || seqs[1] != 2 {
				t.Fatalf("delivered %q as sequences %v, want [outer inner] as [1 2]", got, seqs)
			}
			if st := flow.Stats(); st.Sent != 2 {
				t.Fatalf("flow counts %d sent, want 2", st.Sent)
			}
			if !wantsE2ERecovery(tc.spec) {
				return
			}
			for seq, want := range map[uint32]string{1: "outer", 2: "inner"} {
				if p, ok := flow.history.Get(seq); !ok || p.FlowSeq != seq || string(p.Payload) != want {
					t.Fatalf("history at %d holds seq %d %q (ok %v), want %q", seq, p.FlowSeq, p.Payload, ok, want)
				}
			}
		})
	}
}
