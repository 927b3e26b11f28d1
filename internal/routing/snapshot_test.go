package routing

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonet/internal/wire"
)

// LocalGroups makes fakeGroups a LocalGroupLister, like groups.Manager.
func (f *fakeGroups) LocalGroups() []wire.GroupID {
	out := make([]wire.GroupID, 0, len(f.local))
	for g, on := range f.local {
		if on {
			out = append(out, g)
		}
	}
	return out
}

func TestSnapshotPublishContent(t *testing.T) {
	g, views, grp, engines := diamondWorld(t)
	grp.local[9] = true
	grp.members[9] = []wire.NodeID{1}
	e := engines[1]
	var cell atomic.Pointer[Snapshot]
	e.SetPublishTarget(&cell)
	if cell.Load() != nil {
		t.Fatal("snapshot published before Publish")
	}
	e.Publish()
	snap := cell.Load()
	if snap == nil {
		t.Fatal("Publish stored nothing")
	}
	if snap.Torn() {
		t.Fatalf("fresh snapshot torn: version %d check %d", snap.Version, snap.Check)
	}
	if routes(snap) != g.NumNodes()-1 {
		t.Fatalf("next-hop table %d routes, want one per other node, %d", routes(snap), g.NumNodes()-1)
	}
	hop, ok := snap.nextHop(4)
	if !ok || hop != linkID(t, g, 1, 2) {
		t.Fatalf("nextHop(4) = %v ok=%v, want via neighbor 2", hop, ok)
	}
	if len(snap.Incident) != len(g.Incident(1)) {
		t.Fatalf("incident table %d entries, want %d", len(snap.Incident), len(g.Incident(1)))
	}
	if !snap.localMember(9) || snap.localMember(10) {
		t.Fatal("local group set not frozen correctly")
	}
	if d, _ := snap.Decide(&wire.Packet{Route: wire.RouteFlood, Dst: 0, Group: 9}, NoLink, true, nil); !d.DeliverLocal {
		t.Fatal("group packet for a local group should deliver")
	}
	if d, _ := snap.Decide(&wire.Packet{Route: wire.RouteFlood, Dst: 2}, NoLink, true, nil); d.DeliverLocal {
		t.Fatal("packet for another node should not deliver")
	}

	// A view change reroutes; the republished snapshot must agree.
	views.view.SetUp(linkID(t, g, 1, 2), false)
	e.Publish()
	snap2 := cell.Load()
	if snap2.Version <= snap.Version {
		t.Fatalf("republication did not advance version: %d then %d", snap.Version, snap2.Version)
	}
	hop, ok = snap2.nextHop(4)
	if !ok || hop != linkID(t, g, 1, 3) {
		t.Fatalf("after flap nextHop(4) = %v ok=%v, want via neighbor 3", hop, ok)
	}
	// The old snapshot is immutable: readers that loaded it still see the
	// pre-flap route.
	if hop, _ := snap.nextHop(4); hop != linkID(t, g, 1, 2) {
		t.Fatal("earlier snapshot mutated by republication")
	}
}

func TestSnapshotTreeMissThenDirtyRepublish(t *testing.T) {
	g, views, grp, engines := diamondWorld(t)
	grp.local[7] = true
	grp.members[7] = []wire.NodeID{1, 4}
	e := engines[2]
	var cell atomic.Pointer[Snapshot]
	e.SetPublishTarget(&cell)
	e.Publish()
	if _, ok := cell.Load().treeMask(1, 7); ok {
		t.Fatal("tree present before any multicast packet")
	}
	// Routing a multicast packet computes the tree on demand and marks the
	// publication dirty; PublishIfDirty freezes the warmed cache.
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: 7, TTL: 8}
	e.Decide(p, linkID(t, g, 1, 2), true)
	e.PublishIfDirty()
	snap := cell.Load()
	if _, ok := snap.treeMask(1, 7); !ok {
		t.Fatal("republished snapshot missing the tree routing just computed")
	}
	v := snap.Version
	e.PublishIfDirty()
	if cell.Load().Version != v {
		t.Fatal("PublishIfDirty republished with nothing dirty")
	}
	// A view change supersedes the tree: the next publication drops it.
	moveView(t, g, views)
	e.Publish()
	if _, ok := cell.Load().treeMask(1, 7); ok {
		t.Fatal("snapshot after a view change carries a tree computed before it")
	}
}

// TestSnapshotSharesNothing publishes a snapshot, then changes everything
// the engine reads — nodes and links added to the graph as runtime
// admission adds them, links cut, group membership and local groups
// changed, trees recomputed and republished — and requires every answer
// the old snapshot gives, for every destination, to be what it was.
func TestSnapshotSharesNothing(t *testing.T) {
	g, views, grp, engines := diamondWorld(t)
	grp.local[7] = true
	grp.members[7] = []wire.NodeID{1, 4}
	e := engines[1]
	var cell atomic.Pointer[Snapshot]
	e.SetPublishTarget(&cell)
	e.Decide(&wire.Packet{Route: wire.RouteMulticast, Src: 2, Group: 7}, NoLink, true)
	e.Publish()
	snap := cell.Load()
	dsts := []wire.NodeID{1, 2, 3, 4, 5, 6, 99}
	answers := func() []string {
		var out []string
		for _, dst := range dsts {
			for _, p := range []wire.Packet{
				{Route: wire.RouteLinkState, Dst: dst},
				{Route: wire.RouteFlood, Dst: dst},
				{Route: wire.RouteMulticast, Src: dst, Group: 7},
				{Route: wire.RouteFlood, Group: wire.GroupID(dst)},
			} {
				d, ok := snap.Decide(&p, NoLink, true, nil)
				out = append(out, fmt.Sprintf("%v %v: %v %v %v", p.Route, dst, d.DeliverLocal, d.Forward, ok))
			}
		}
		return out
	}
	before := answers()
	// A data shard keeps reading while the control shard changes things:
	// under -race any memory the two share is a reported race.
	var stop atomic.Bool
	var passes atomic.Int64
	moved := make(chan []string, 1)
	go func() {
		defer close(moved)
		for !stop.Load() {
			if got := answers(); !reflect.DeepEqual(before, got) {
				moved <- got
				return
			}
			passes.Add(1)
		}
	}()

	for _, l := range [][2]wire.NodeID{{4, 5}, {5, 6}, {1, 6}} {
		if _, err := g.AddLink(l[0], l[1], time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	views.view.Grow()
	views.view.SetUp(linkID(t, g, 1, 2), false)
	views.view.SetUp(linkID(t, g, 1, 4), false)
	grp.local[7], grp.local[5] = false, true
	grp.members[7] = []wire.NodeID{3, 5, 6}
	grp.version++
	e.Decide(&wire.Packet{Route: wire.RouteMulticast, Src: 2, Group: 7}, NoLink, true)
	e.Publish()
	// Let the reader finish a pass begun after the changes.
	for p := passes.Load(); passes.Load() < p+2 && len(moved) == 0; {
		runtime.Gosched()
	}
	stop.Store(true)
	if got, ok := <-moved; ok {
		t.Fatalf("a reader saw a published snapshot's answers move:\nbefore %q\nduring %q", before, got)
	}
	if cell.Load() == snap {
		t.Fatal("the changes published nothing new")
	}
	if after := answers(); !reflect.DeepEqual(before, after) {
		t.Fatalf("a published snapshot's answers moved with the live state:\nbefore %q\nafter  %q", before, after)
	}
}

// TestSnapshotRepublishRace flaps a route while readers consume published
// snapshots, asserting under the race detector that a reader never
// observes a torn snapshot: the version stamps at both ends must agree,
// and a usable next hop must be consistent with the same snapshot's
// incident-link usability column (a pairing that could only break if two
// publications interleaved).
func TestSnapshotRepublishRace(t *testing.T) {
	g, views, _, engines := diamondWorld(t)
	e := engines[1]
	var cell atomic.Pointer[Snapshot]
	e.SetPublishTarget(&cell)
	e.Publish()

	flapLink := linkID(t, g, 1, 2)
	const (
		readers = 4
		flaps   = 400
	)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastVersion uint64
			for !stop.Load() {
				snap := cell.Load()
				if snap.Torn() {
					errs <- "torn snapshot observed"
					return
				}
				if snap.Version < lastVersion {
					errs <- "snapshot version went backward"
					return
				}
				lastVersion = snap.Version
				if routes(snap) != g.NumNodes()-1 {
					errs <- "next-hop table with wrong route count"
					return
				}
				usable := make(map[wire.LinkID]bool, len(snap.Incident))
				for _, inc := range snap.Incident {
					usable[inc.Link] = inc.Usable
				}
				for _, hop := range snap.NextHop {
					if hop != 0 && !usable[hop-1] {
						errs <- "next hop over a link the same snapshot marks unusable"
						return
					}
				}
			}
		}()
	}
	// The publisher is the single-threaded control shard: it owns the view
	// and the engine, and readers touch only published snapshots.
	for i := 0; i < flaps; i++ {
		views.view.SetUp(flapLink, i%2 == 0)
		e.Publish()
	}
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
}

// routes counts the destinations a snapshot's next-hop table routes to.
func routes(s *Snapshot) int {
	n := 0
	for _, hop := range s.NextHop {
		if hop != 0 {
			n++
		}
	}
	return n
}
