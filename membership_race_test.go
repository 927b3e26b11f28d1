package sonet

import (
	"testing"
	"time"

	"sonet/internal/membership"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// ringSix is a 2-connected 6-node ring expressed through the public API.
func ringSix() []Link {
	ms := time.Millisecond
	return []Link{
		{A: 1, B: 2, Latency: 10 * ms},
		{A: 2, B: 3, Latency: 10 * ms},
		{A: 3, B: 4, Latency: 10 * ms},
		{A: 4, B: 5, Latency: 10 * ms},
		{A: 5, B: 6, Latency: 10 * ms},
		{A: 6, B: 1, Latency: 10 * ms},
		{A: 1, B: 4, Latency: 12 * ms},
	}
}

func memberNet(t *testing.T, seed uint64) *Network {
	t.Helper()
	net, err := New(seed, ringSix(), WithMembership())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return net
}

func wantMembers(t *testing.T, net *Network, at NodeID, want []NodeID) {
	t.Helper()
	got := net.Members(at)
	if len(got) != len(want) {
		t.Fatalf("node %d sees members %v, want %v", at, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d sees members %v, want %v", at, got, want)
		}
	}
}

// TestJoinDuringPartition races admission against a partition: the joiner
// connects to a contact that is cut off from half the fleet mid-handshake.
// The admission record must reach the far side only after the partition
// heals — and must reach it then.
func TestJoinDuringPartition(t *testing.T) {
	net := memberNet(t, 11)
	defer net.Close()
	net.Run(500 * time.Millisecond)
	// Sever nodes {1,2,3} from {4,5,6} except through the contact's side:
	// cut 3–4, 6–1, and the 1–4 chord, isolating the contact (4) with 5,6.
	for _, cut := range [][2]NodeID{{3, 4}, {6, 1}, {1, 4}} {
		if err := net.CutLink(cut[0], cut[1]); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(300 * time.Millisecond)
	// Join through contact 4 while it is partitioned.
	if err := net.JoinNode(7, 4, Link{A: 7, B: 4, Latency: 10 * time.Millisecond}); err != nil {
		t.Fatalf("JoinNode: %v", err)
	}
	net.Run(time.Second)
	// The contact's side admits the joiner; the far side cannot know yet.
	wantMembers(t, net, 4, []NodeID{1, 2, 3, 4, 5, 6, 7})
	if got := net.Members(1); len(got) == 7 {
		t.Fatal("admission crossed an active partition")
	}
	// Heal; anti-entropy carries the admission across.
	for _, cut := range [][2]NodeID{{3, 4}, {6, 1}, {1, 4}} {
		if err := net.RestoreLink(cut[0], cut[1]); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(3 * time.Second)
	for id := NodeID(1); id <= 7; id++ {
		wantMembers(t, net, id, []NodeID{1, 2, 3, 4, 5, 6, 7})
	}
}

// TestLeaveMidFlood races a graceful departure against link-state churn:
// the leaver withdraws while cut/restore floods for an unrelated link are
// still propagating. Survivors must converge on the reduced membership
// and keep routing around both events.
func TestLeaveMidFlood(t *testing.T) {
	net := memberNet(t, 12)
	defer net.Close()
	net.Run(500 * time.Millisecond)
	// Kick off a flood and depart in the same scheduling breath.
	if err := net.CutLink(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := net.LeaveNode(5); err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	if err := net.RestoreLink(2, 3); err != nil {
		t.Fatal(err)
	}
	net.Run(3 * time.Second)
	for _, id := range []NodeID{1, 2, 3, 4, 6} {
		wantMembers(t, net, id, []NodeID{1, 2, 3, 4, 6})
	}
	// The ring minus node 5 still routes 4 → 6 the long way.
	if p := net.PathBetween(4, 6); len(p) == 0 {
		t.Fatal("no route around the departed node")
	}
}

// TestConcurrentJoinsSameContact admits two joiners through the same
// contact back to back, so their join requests, admission floods, and
// sync replies interleave. Both must end up members everywhere, and the
// contact's admission counter must reflect exactly two admissions.
func TestConcurrentJoinsSameContact(t *testing.T) {
	net := memberNet(t, 13)
	defer net.Close()
	net.Run(500 * time.Millisecond)
	if err := net.JoinNode(7, 1, Link{A: 7, B: 1, Latency: 10 * time.Millisecond}); err != nil {
		t.Fatalf("JoinNode(7): %v", err)
	}
	if err := net.JoinNode(8, 1, Link{A: 8, B: 1, Latency: 10 * time.Millisecond}); err != nil {
		t.Fatalf("JoinNode(8): %v", err)
	}
	net.Run(3 * time.Second)
	all := []NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, id := range all {
		wantMembers(t, net, id, all)
	}
	// The two joiners route to each other through the shared contact.
	if p := net.PathBetween(7, 8); len(p) == 0 {
		t.Fatal("no route between the two joiners")
	}
}

// TestRejoinStaleEpoch departs a node and brings back a fresh incarnation
// whose seeded directory is deliberately stale (it still believes the
// epoch-1 world, including its own pre-leave admission). The admission
// handshake plus anti-entropy must supersede the stale records, and the
// fleet must converge back to full membership with working routes.
func TestRejoinStaleEpoch(t *testing.T) {
	net := memberNet(t, 14)
	defer net.Close()
	net.Run(500 * time.Millisecond)
	if err := net.LeaveNode(4); err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	net.Run(2 * time.Second)
	for _, id := range []NodeID{1, 2, 3, 5, 6} {
		wantMembers(t, net, id, []NodeID{1, 2, 3, 5, 6})
	}
	if err := net.RejoinNode(4, 5); err != nil {
		t.Fatalf("RejoinNode: %v", err)
	}
	net.Run(3 * time.Second)
	all := []NodeID{1, 2, 3, 4, 5, 6}
	for _, id := range all {
		wantMembers(t, net, id, all)
	}
	if p := net.PathBetween(1, 4); len(p) == 0 {
		t.Fatal("no route to the rejoined node")
	}
}

// TestDepartedNodeLeavesItsGroups: a node that leaves the overlay announces
// nothing more, so its group memberships must go with its directory record —
// survivors used to list it as a member until it came back. After the leave
// no survivor lists node 4 in the group and the sender's multicast tree is
// empty; a rejoined incarnation whose client joins again is a member
// everywhere and receives the group's traffic.
func TestDepartedNodeLeavesItsGroups(t *testing.T) {
	const grp GroupID = 7
	const sender NodeID = 1
	net := memberNet(t, 15)
	defer net.Close()
	join := func() *Client {
		t.Helper()
		c, err := net.Connect(4, 700)
		if err != nil {
			t.Fatalf("Connect: %v", err)
		}
		c.Join(grp)
		return c
	}
	members := func(at NodeID) []NodeID { return net.sim.Node(at).Groups().Members(grp) }
	tree := func() []wire.LinkID {
		nd := net.sim.Node(sender)
		mask, _ := topology.MulticastTree(nd.View(), sender, members(sender), topology.ExpectedLatencyMetric)
		return mask.Links()
	}
	survivors := []NodeID{1, 2, 3, 5, 6}

	join()
	net.Run(500 * time.Millisecond)
	for _, id := range survivors {
		if m := members(id); len(m) != 1 || m[0] != 4 {
			t.Fatalf("before the leave node %d sees members %v, want [4]", id, m)
		}
	}
	if len(tree()) == 0 {
		t.Fatal("before the leave the sender's tree reaches nobody")
	}

	if err := net.LeaveNode(4); err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	// Four sweeps, well inside the 20-sweep stabilization bound.
	net.Run(2 * time.Second)
	for _, id := range survivors {
		wantMembers(t, net, id, survivors)
		if m := members(id); len(m) != 0 {
			t.Fatalf("node %d still lists %v in the group after node 4 left", id, m)
		}
	}
	if links := tree(); len(links) != 0 {
		t.Fatalf("sender's multicast tree still has links %v", links)
	}

	if err := net.RejoinNode(4, 5); err != nil {
		t.Fatalf("RejoinNode: %v", err)
	}
	rejoined := join()
	net.Run(3 * time.Second)
	for _, id := range survivors {
		if m := members(id); len(m) != 1 || m[0] != 4 {
			t.Fatalf("after the rejoin node %d sees members %v, want [4]", id, m)
		}
	}
	src, err := net.Connect(sender, 701)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	flow, err := src.OpenFlow(FlowSpec{Group: grp, ToPort: 700})
	if err != nil {
		t.Fatalf("OpenFlow: %v", err)
	}
	if err := flow.Send([]byte("back")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	net.Run(200 * time.Millisecond)
	if got := rejoined.Deliveries(); len(got) != 1 || string(got[0].Payload) != "back" {
		t.Fatalf("rejoined member received %v", got)
	}
}

// TestHealedPartitionDoesNotResurrectDepartedMember: node 2 is cut off while
// node 5 leaves, so it still retains node 5's announcement when its links
// heal and pushes it to neighbors that have forgotten node 5's numbering.
// The membership gate must refuse it there; accepted, it would put node 5
// back into the group at every node but 2, for good.
func TestHealedPartitionDoesNotResurrectDepartedMember(t *testing.T) {
	const grp GroupID = 7
	net := memberNet(t, 16)
	defer net.Close()
	c, err := net.Connect(5, 700)
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	c.Join(grp)
	net.Run(500 * time.Millisecond)
	for _, cut := range [][2]NodeID{{1, 2}, {2, 3}} {
		if err := net.CutLink(cut[0], cut[1]); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(2 * time.Second)
	if err := net.LeaveNode(5); err != nil {
		t.Fatalf("LeaveNode: %v", err)
	}
	net.Run(2 * time.Second)
	if m := net.sim.Node(2).Groups().Members(grp); len(m) != 1 || m[0] != 5 {
		t.Fatalf("premise: cut-off node 2 sees members %v, want [5]", m)
	}
	for _, cut := range [][2]NodeID{{1, 2}, {2, 3}} {
		if err := net.RestoreLink(cut[0], cut[1]); err != nil {
			t.Fatal(err)
		}
	}
	net.Run(5 * time.Second)
	refused := uint64(0)
	for _, id := range []NodeID{1, 2, 3, 4, 6} {
		if m := net.sim.Node(id).Groups().Members(grp); len(m) != 0 {
			t.Errorf("node %d lists %v in the group after the partition healed", id, m)
		}
		st, _ := net.NodeStats(id)
		refused += st.Control.RefusedAnnouncements
	}
	if refused == 0 {
		t.Error("no node refused the departed node's retained announcement")
	}
}

// TestUnknownStatusRecordEvictsNobody plants a directory record with a
// status byte the protocol does not define at one replica. Merged, it won
// against node 4's admission by epoch, flooded, and was refuted by nobody —
// self-defence answers departures only — so the whole fleet, node 4
// included, dropped a live node for good. It is malformed input: the replica
// refuses it and twenty sweeps later all six nodes are members everywhere.
func TestUnknownStatusRecordEvictsNobody(t *testing.T) {
	net := memberNet(t, 17)
	defer net.Close()
	net.Run(500 * time.Millisecond)
	bad := membership.Record{ID: 4, Epoch: 2, Status: 3}
	if net.sim.Node(1).Membership().InjectRecord(bad) {
		t.Error("replica merged a record with an unknown status")
	}
	net.Run(20 * membership.DefaultConfig().SweepInterval)
	all := []NodeID{1, 2, 3, 4, 5, 6}
	for _, id := range all {
		wantMembers(t, net, id, all)
		if !net.sim.Node(id).Membership().AllowsOrigin(4) {
			t.Errorf("node %d refuses node 4's advertisements", id)
		}
	}
	if p := net.PathBetween(1, 4); len(p) == 0 {
		t.Error("no route to node 4")
	}
}
