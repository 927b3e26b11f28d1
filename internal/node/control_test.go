package node

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"sonet/internal/groups"
	"sonet/internal/linkstate"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// lineGraph builds 1-2-…-n with 10 ms links; closed, it is the ring.
func lineGraph(t *testing.T, n int, closed bool) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for i := 1; i < n; i++ {
		if _, err := g.AddLink(wire.NodeID(i), wire.NodeID(i+1), 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if closed {
		if _, err := g.AddLink(wire.NodeID(n), 1, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestLinkRecoveryResyncIsLinear cuts and restores the middle link of a
// 16-node line (a bridge, so no flood comes back around) with both refresh
// cycles off and every node in a group of its own, and counts what each
// endpoint puts on the healed link: its own fresh advertisement and
// announcement, and each retained advertisement and announcement exactly
// once. Resyncing group state per resynced LSA made that 15 × 16
// group-state packets.
func TestLinkRecoveryResyncIsLinear(t *testing.T) {
	const n = 16
	const a, b wire.NodeID = 8, 9
	f := buildWorld(t, lineGraph(t, n, false), func(c *Config) {
		c.GroupRefresh = 10 * time.Minute
		c.LinkState.RefreshInterval = 10 * time.Minute
	})
	for id, nd := range f.nodes {
		nd.Groups().Join(wire.GroupID(100 + int(id)))
	}
	cut, counting := false, false
	type dirType struct {
		from wire.NodeID
		t    wire.PacketType
	}
	onLink := make(map[dirType]int)
	f.drop = func(from, to wire.NodeID, _ uint8, data []byte) bool {
		if !(from == a && to == b || from == b && to == a) {
			return false
		}
		if fr, _, err := wire.UnmarshalFrame(data); counting && err == nil && fr.Packet != nil {
			onLink[dirType{from, fr.Packet.Type}]++
		}
		return cut
	}
	f.sched.RunFor(2 * time.Second)
	cut = true
	f.sched.RunFor(3 * time.Second)
	for _, id := range []wire.NodeID{a, b} {
		if f.nodes[id].LinkStateManager().NeighborUp(a + b - id) {
			t.Fatalf("node %d never declared the cut link down", id)
		}
	}
	var before [2]ControlStats
	for i, id := range []wire.NodeID{a, b} {
		before[i] = f.nodes[id].ControlStats()
	}
	cut, counting = false, true
	f.sched.RunFor(3 * time.Second)

	// Every endpoint retains one advertisement and one announcement per
	// other node: all of them were heard before the cut.
	const retained = n - 1
	for i, id := range []wire.NodeID{a, b} {
		nd := f.nodes[id]
		if !nd.LinkStateManager().NeighborUp(a + b - id) {
			t.Fatalf("node %d never saw the link recover", id)
		}
		if got := nd.ControlStats().ResyncLSAs - before[i].ResyncLSAs; got != retained {
			t.Errorf("node %d resynced %d LSAs, want %d", id, got, retained)
		}
		if got := nd.ControlStats().ResyncAnnouncements - before[i].ResyncAnnouncements; got != retained {
			t.Errorf("node %d resynced %d announcements, want %d", id, got, retained)
		}
		// On the wire: the resync plus the endpoint's own flood, once.
		if got := onLink[dirType{id, wire.PTLinkState}]; got != retained+1 {
			t.Errorf("node %d put %d LSAs on the healed link, want %d", id, got, retained+1)
		}
		if got := onLink[dirType{id, wire.PTGroupState}]; got != retained+1 {
			t.Errorf("node %d put %d announcements on the healed link, want %d", id, got, retained+1)
		}
	}
	// The far ends hold each other's groups: the databases did cross.
	if m := f.nodes[1].Groups().Members(100 + n); len(m) != 1 || m[0] != n {
		t.Fatalf("node 1 sees members %v of node %d's group", m, n)
	}
}

// TestMulticastTreeAgreesOnEqualCostPaths is the closure test for the
// invariant routing.treeMask rests on — every node computes the identical
// tree from identical shared state. A ring of 8 gives the source two
// equal-latency paths to the one member; every transmission's delay jitters
// by up to 5 %, far under the 25 % an advertisement takes, so measured RTTs
// wander and advertised ones must not. At every 10 ms instant outside a
// fault's convergence window all eight nodes derive the same tree, and the
// member receives every message sent. An owner routing on its measured RTT
// instead of its advertised one broke the tie its own way.
func TestMulticastTreeAgreesOnEqualCostPaths(t *testing.T) {
	const src, member wire.NodeID = 1, 5
	const grp wire.GroupID = 7
	f := buildWorld(t, lineGraph(t, 8, true), nil)
	jitter := rand.New(rand.NewSource(23))
	f.delay = func(l topology.Link) time.Duration {
		return l.Latency + time.Duration((jitter.Float64()-0.5)*0.1*float64(l.Latency))
	}
	cutLink, _ := f.graph.LinkBetween(2, 3)
	cut := false
	f.drop = func(from, to wire.NodeID, _ uint8, _ []byte) bool {
		return cut && (from == cutLink.A && to == cutLink.B || from == cutLink.B && to == cutLink.A)
	}
	got := make(map[uint32]bool)
	f.nodes[member].SetDeliver(func(p *wire.Packet) { got[p.FlowSeq] = true })
	f.nodes[member].Groups().Join(grp)
	f.sched.RunFor(time.Second)

	// A fault may cost what detection and the flood take: three missed
	// hellos and a trip round the ring after a cut; after a restore, the
	// slower endpoint's next down-probe (1 s apart) as well.
	const cutAt, restoreAt, end = 4 * time.Second, 7 * time.Second, 11 * time.Second
	converging := func(now time.Duration) bool {
		return now >= cutAt-50*time.Millisecond && now < cutAt+time.Second ||
			now >= restoreAt-50*time.Millisecond && now < restoreAt+1500*time.Millisecond
	}
	start := f.sched.Now()
	var sent []uint32
	for seq := uint32(1); f.sched.Now()-start < end; seq++ {
		now := f.sched.Now() - start
		cut = now >= cutAt && now < restoreAt
		if !converging(now) {
			want, _ := topology.MulticastTree(f.nodes[src].View(), src, f.nodes[src].Groups().Members(grp), topology.LatencyMetric)
			for id, nd := range f.nodes {
				if mask, _ := topology.MulticastTree(nd.View(), src, nd.Groups().Members(grp), topology.LatencyMetric); mask != want {
					t.Fatalf("at %v node %d derives tree %v, the source %v", now, id, mask, want)
				}
			}
			sent = append(sent, seq)
		}
		err := f.nodes[src].Originate(&wire.Packet{
			Type: wire.PTData, Route: wire.RouteMulticast, LinkProto: wire.LPBestEffort, Group: grp, FlowSeq: seq,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.sched.RunFor(10 * time.Millisecond)
	}
	f.sched.RunFor(time.Second)
	for _, seq := range sent {
		if !got[seq] {
			t.Fatalf("message %d, sent outside any convergence window, never reached the member (%d of %d did)", seq, len(got), len(sent))
		}
	}
}

// TestControlPlaneAllocBudget: in steady state the control plane of a node
// allocates nothing — not to discard a copy of an advertisement or
// announcement it has seen, not to accept, retain, apply and reflood a
// fresh one of the size it last held, not to probe a neighbor or answer a
// probe, not to send or flood a control payload.
func TestControlPlaneAllocBudget(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation budget not measurable under -race")
	}
	g := lineGraph(t, 3, false)
	sched := sim.NewScheduler(1)
	under := &nullUnderlay{}
	n, err := New(Config{
		ID: 2, Clock: sched, Underlay: under, Graph: g, GroupRefresh: time.Hour,
		LinkState: linkstate.Config{RefreshInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	link23, _ := g.LinkBetween(2, 3)
	adv := &linkstate.Advertisement{Origin: 3, Seq: 1, Entries: []linkstate.Entry{{Link: link23.ID, Up: true, Latency: 10 * time.Millisecond}}}
	ann := &groups.Announcement{Origin: 3, Seq: 1, Groups: []wire.GroupID{7, 9}}
	lsa := &wire.Packet{Type: wire.PTLinkState, Src: 3, Payload: adv.Marshal()}
	grp := &wire.Packet{Type: wire.PTGroupState, Src: 3, Payload: ann.Marshal()}
	seq := uint32(1)
	fresh := func(p *wire.Packet) func() {
		return func() {
			seq++
			binary.BigEndian.PutUint32(p.Payload[2:], seq)
			n.handleControl(3, p)
		}
	}
	// One probe round: both hello timers fire, both neighbors answer with
	// the RTT the links were designed for, and both probe in turn.
	scratch := make([]byte, 0, 128)
	frame := func(f wire.Frame) []byte {
		b, err := f.AppendMarshal(scratch[:0])
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	probes := func() {
		sched.RunFor(100 * time.Millisecond)
		for _, peer := range []wire.NodeID{1, 3} {
			n.HandleUnderlay(peer, frame(wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FHelloAck, SendTime: sched.Now() - 20*time.Millisecond}))
			n.HandleUnderlay(peer, frame(wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FHello, SendTime: sched.Now()}))
		}
	}
	for _, c := range []struct {
		name  string
		sends bool
		op    func()
	}{
		{"accepted LSA", true, fresh(lsa)},
		{"stale LSA", false, func() { n.handleControl(3, lsa) }},
		{"accepted announcement", true, fresh(grp)},
		{"stale announcement", false, func() { n.handleControl(3, grp) }},
		{"hello tick, hello-ack and hello", true, probes},
		{"sendControl", true, func() { n.sendControl(wire.PTMembership, 1, lsa.Payload) }},
		{"floodControl", true, func() { n.floodControl(wire.PTMembership, lsa.Payload, 0) }},
	} {
		for i := 0; i < 64; i++ {
			c.op() // warm the decode scratch, retained copies and buffer pool
		}
		sent := under.sent
		if avg := testing.AllocsPerRun(200, c.op); avg > 0 {
			t.Errorf("%s allocates %.2f allocs/op, budget is 0", c.name, avg)
		}
		if c.sends != (under.sent > sent) {
			t.Errorf("%s: transmissions went %d → %d", c.name, sent, under.sent)
		}
	}
	st, cs := n.LinkStateManager().Stats(), n.ControlStats()
	if st.DownDetections != 0 || st.HellosMissed != 0 || cs.StaleLSAs == 0 || cs.StaleAnnouncements == 0 {
		t.Fatalf("fixture drifted: %+v, floods %+v", st, cs)
	}
}
