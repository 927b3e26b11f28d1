package routing

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"sonet/internal/topology"
	"sonet/internal/wire"
)

type fakeViews struct{ view *topology.View }

func (f *fakeViews) View() *topology.View { return f.view }

type fakeGroups struct {
	members map[wire.GroupID][]wire.NodeID
	local   map[wire.GroupID]bool
	version uint64
}

func (f *fakeGroups) Members(g wire.GroupID) []wire.NodeID { return f.members[g] }
func (f *fakeGroups) LocalMember(g wire.GroupID) bool      { return f.local[g] }
func (f *fakeGroups) Version() uint64                      { return f.version }

// diamondWorld builds the 4-node diamond and an engine at each node.
//
//	1 --a-- 2 --b-- 4,  1 --c-- 3 --d-- 4, 1 --e-- 4 (slow chord)
func diamondWorld(t *testing.T) (*topology.Graph, *fakeViews, *fakeGroups, map[wire.NodeID]*Engine) {
	t.Helper()
	g := topology.NewGraph()
	mustLink := func(a, b wire.NodeID, lat time.Duration) {
		if _, err := g.AddLink(a, b, lat); err != nil {
			t.Fatal(err)
		}
	}
	mustLink(1, 2, 10*time.Millisecond)
	mustLink(2, 4, 10*time.Millisecond)
	mustLink(1, 3, 12*time.Millisecond)
	mustLink(3, 4, 12*time.Millisecond)
	mustLink(1, 4, 50*time.Millisecond)
	views := &fakeViews{view: topology.NewView(g)}
	grp := &fakeGroups{members: make(map[wire.GroupID][]wire.NodeID), local: make(map[wire.GroupID]bool)}
	engines := make(map[wire.NodeID]*Engine, 4)
	for _, n := range g.Nodes() {
		engines[n] = NewEngine(n, views, grp, topology.LatencyMetric)
	}
	return g, views, grp, engines
}

func linkID(t *testing.T, g *topology.Graph, a, b wire.NodeID) wire.LinkID {
	t.Helper()
	l, ok := g.LinkBetween(a, b)
	if !ok {
		t.Fatalf("no link %v-%v", a, b)
	}
	return l.ID
}

func TestUnicastForwardAndDeliver(t *testing.T) {
	g, _, _, engines := diamondWorld(t)
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState, Src: 1, Dst: 4}
	d := engines[1].Decide(p, NoLink, true)
	if d.DeliverLocal {
		t.Fatal("delivered locally at source")
	}
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 2) {
		t.Fatalf("forward = %v, want via 1-2", d.Forward)
	}
	d = engines[2].Decide(p, linkID(t, g, 1, 2), true)
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 2, 4) {
		t.Fatalf("node 2 forward = %v, want via 2-4", d.Forward)
	}
	d = engines[4].Decide(p, linkID(t, g, 2, 4), true)
	if !d.DeliverLocal || len(d.Forward) != 0 {
		t.Fatalf("destination decision = %+v, want local delivery only", d)
	}
}

func TestUnicastReroutesOnViewChange(t *testing.T) {
	g, views, _, engines := diamondWorld(t)
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState, Src: 1, Dst: 4}
	d := engines[1].Decide(p, NoLink, true)
	if d.Forward[0] != linkID(t, g, 1, 2) {
		t.Fatalf("initial route %v", d.Forward)
	}
	views.view.SetUp(linkID(t, g, 1, 2), false)
	d = engines[1].Decide(p, NoLink, true)
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 3) {
		t.Fatalf("rerouted forward = %v, want via 1-3", d.Forward)
	}
}

func TestUnicastUnreachableDrops(t *testing.T) {
	g, views, _, engines := diamondWorld(t)
	for _, lid := range g.Incident(4) {
		views.view.SetUp(lid, false)
	}
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState, Src: 1, Dst: 4}
	d := engines[1].Decide(p, NoLink, true)
	if d.DeliverLocal || len(d.Forward) != 0 {
		t.Fatalf("decision for unreachable dst = %+v, want drop", d)
	}
}

func TestSourceMaskForwardsOnlyMaskedLinks(t *testing.T) {
	g, _, _, engines := diamondWorld(t)
	var mask wire.Bitmask
	mask.Set(linkID(t, g, 1, 2))
	mask.Set(linkID(t, g, 2, 4))
	mask.Set(linkID(t, g, 1, 3))
	mask.Set(linkID(t, g, 3, 4))
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteSourceMask, Src: 1, Dst: 4, Mask: mask}
	d := engines[1].Decide(p, NoLink, true)
	got := append([]wire.LinkID(nil), d.Forward...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []wire.LinkID{linkID(t, g, 1, 2), linkID(t, g, 1, 3)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("forward = %v, want %v", got, want)
	}
	// Intermediate node forwards onward but not back.
	d = engines[2].Decide(p, linkID(t, g, 1, 2), true)
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 2, 4) {
		t.Fatalf("node 2 forward = %v", d.Forward)
	}
	// Destination delivers and (per mask) forwards nowhere new.
	d = engines[4].Decide(p, linkID(t, g, 2, 4), true)
	if !d.DeliverLocal {
		t.Fatal("destination did not deliver")
	}
	for _, lid := range d.Forward {
		if lid == linkID(t, g, 2, 4) {
			t.Fatal("forwarded back onto arrival link")
		}
	}
}

func TestSourceMaskDuplicateNoFanOut(t *testing.T) {
	g, _, _, engines := diamondWorld(t)
	var mask wire.Bitmask
	for _, l := range g.Links() {
		mask.Set(l.ID)
	}
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteSourceMask, Src: 1, Dst: 4, Mask: mask}
	d := engines[2].Decide(p, linkID(t, g, 1, 2), false)
	if d.DeliverLocal || len(d.Forward) != 0 {
		t.Fatalf("duplicate fanned out: %+v", d)
	}
}

func TestFloodUsesAllUpLinks(t *testing.T) {
	g, views, _, engines := diamondWorld(t)
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteFlood, Src: 2, Dst: 4}
	d := engines[1].Decide(p, linkID(t, g, 1, 2), true)
	got := append([]wire.LinkID(nil), d.Forward...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []wire.LinkID{linkID(t, g, 1, 3), linkID(t, g, 1, 4)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flood forward = %v, want %v", got, want)
	}
	// A down link is excluded from the flood.
	views.view.SetUp(linkID(t, g, 1, 3), false)
	d = engines[1].Decide(p, linkID(t, g, 1, 2), true)
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 4) {
		t.Fatalf("flood with down link = %v", d.Forward)
	}
}

func TestMulticastTreeForwarding(t *testing.T) {
	g, _, grp, engines := diamondWorld(t)
	grp.members[50] = []wire.NodeID{2, 4}
	grp.version++
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: 50}
	// Tree from 1 covering {2,4}: links 1-2 and 2-4.
	d := engines[1].Decide(p, NoLink, true)
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 2) {
		t.Fatalf("source forward = %v, want [1-2]", d.Forward)
	}
	if d.DeliverLocal {
		t.Fatal("source delivered without local membership")
	}
	grpLocal2 := &fakeGroups{members: grp.members, local: map[wire.GroupID]bool{50: true}, version: grp.version}
	eng2 := NewEngine(2, engines[2].views, grpLocal2, topology.LatencyMetric)
	d = eng2.Decide(p, linkID(t, g, 1, 2), true)
	if !d.DeliverLocal {
		t.Fatal("member node did not deliver")
	}
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 2, 4) {
		t.Fatalf("node 2 forward = %v, want [2-4]", d.Forward)
	}
}

func TestMulticastCacheInvalidation(t *testing.T) {
	g, views, grp, engines := diamondWorld(t)
	grp.members[50] = []wire.NodeID{4}
	grp.version++
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: 50}
	d := engines[1].Decide(p, NoLink, true)
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 2) {
		t.Fatalf("initial tree forward = %v", d.Forward)
	}
	// Fail 1-2: the tree must recompute through 3.
	views.view.SetUp(linkID(t, g, 1, 2), false)
	d = engines[1].Decide(p, NoLink, true)
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 3) {
		t.Fatalf("post-failure tree forward = %v, want via 3", d.Forward)
	}
	// Membership change invalidates too.
	grp.members[50] = nil
	grp.version++
	d = engines[1].Decide(p, NoLink, true)
	if len(d.Forward) != 0 {
		t.Fatalf("tree for empty group still forwards: %v", d.Forward)
	}
}

func TestMulticastDuplicateDropped(t *testing.T) {
	g, _, grp, engines := diamondWorld(t)
	grp.members[50] = []wire.NodeID{4}
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: 50}
	d := engines[2].Decide(p, linkID(t, g, 1, 2), false)
	if d.DeliverLocal || len(d.Forward) != 0 {
		t.Fatalf("duplicate multicast decision = %+v", d)
	}
}

func TestAnycastResolveNearest(t *testing.T) {
	_, _, grp, engines := diamondWorld(t)
	grp.members[9] = []wire.NodeID{3, 4}
	target, ok := engines[1].AnycastResolve(9)
	if !ok || target != 3 {
		t.Fatalf("AnycastResolve = %v,%v, want 3", target, ok)
	}
	if _, ok := engines[1].AnycastResolve(10); ok {
		t.Fatal("resolved empty group")
	}
}

func TestPathToAndReachable(t *testing.T) {
	_, views, _, engines := diamondWorld(t)
	path := engines[1].PathTo(4)
	want := []wire.NodeID{1, 2, 4}
	if !reflect.DeepEqual(path, want) {
		t.Fatalf("PathTo(4) = %v, want %v", path, want)
	}
	if !engines[1].Reachable(4) {
		t.Fatal("4 unreachable")
	}
	for i := range views.view.State {
		views.view.State[i].Up = false
	}
	views.view.Invalidate()
	if engines[1].Reachable(4) {
		t.Fatal("4 reachable with all links down")
	}
}

func TestInvalidateForcesRecompute(t *testing.T) {
	g, views, _, engines := diamondWorld(t)
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState, Src: 1, Dst: 4}
	_ = engines[1].Decide(p, NoLink, true)
	// A direct State write moves no version; View.Invalidate does, untracked
	// by the change journal, so the engine must recompute in full.
	views.view.State[linkID(t, g, 1, 2)].Up = false
	views.view.Invalidate()
	d := engines[1].Decide(p, NoLink, true)
	if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 3) {
		t.Fatalf("post-Invalidate forward = %v, want via 1-3", d.Forward)
	}
}
