package node

import (
	"sync/atomic"
	"testing"
	"time"

	"sonet/internal/flood"
	"sonet/internal/linkstate"
	"sonet/internal/membership"
	"sonet/internal/routing"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// TestNodeTableAllocBudget: once the per-node tables hold an entry for
// every node looked up, the lookups on the per-event path allocate
// nothing — a flood database's offer and accept of news, a membership
// test, the link joining two nodes, a shard's peer entry, and a forwarding
// snapshot's next hop. The world includes the top of the ID space, where
// each table is at its largest.
func TestNodeTableAllocBudget(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation budget not measurable under -race")
	}
	const top = wire.NodeID(0xffff)
	g := lineGraph(t, 3, false)
	if _, err := g.AddLink(3, top, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	n, err := New(Config{
		ID: 3, Clock: sim.NewScheduler(1), Underlay: &nullUnderlay{}, Graph: g, GroupRefresh: time.Hour,
		LinkState: linkstate.Config{RefreshInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	var cell atomic.Pointer[routing.Snapshot]
	n.engine.SetPublishTarget(&cell)
	n.Start()
	snap := cell.Load()

	db := flood.New(3)
	payload := make([]byte, 64)
	seq := uint32(1)
	for _, origin := range g.Nodes() {
		db.Accept(origin, seq, payload, true)
	}
	dir := membership.NewDirectory()
	for _, id := range g.Nodes() {
		dir.Apply(membership.Record{ID: id, Epoch: 1, Status: membership.StatusJoined})
	}
	scratch := make([]wire.LinkID, 0, 4)
	toTop := &wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState, TTL: 8, Src: 3, Dst: top}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"flood offer and accept", func() {
			seq++
			if db.Offer(top, seq) != flood.News {
				t.Fatal("fresh sequence not news")
			}
			db.Accept(top, seq, payload, true)
		}},
		{"directory membership", func() {
			if !dir.IsMember(top) {
				t.Fatal("joined node not a member")
			}
		}},
		{"link between", func() {
			if _, ok := g.LinkBetween(top, 3); !ok {
				t.Fatal("no link to the top ID")
			}
		}},
		{"shard peer", func() {
			if n.ctl.peers.At(top) == nil {
				t.Fatal("no peer entry for a neighbor")
			}
		}},
		{"snapshot next hop", func() {
			if d, ok := snap.Decide(toTop, routing.NoLink, true, scratch); !ok || len(d.Forward) != 1 {
				t.Fatalf("snapshot decision %+v ok=%v, want one next hop", d, ok)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(200, c.op); allocs != 0 {
			t.Errorf("%s: %.1f allocs per lookup, want 0", c.name, allocs)
		}
	}
}
