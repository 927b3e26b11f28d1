package routing

import (
	"sync"
	"sync/atomic"
	"testing"

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
	if len(snap.NextHop) != g.NumNodes() {
		t.Fatalf("next-hop table %d entries, want %d", len(snap.NextHop), g.NumNodes())
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
	views.version++
	e.Invalidate()
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
	g, _, grp, engines := diamondWorld(t)
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
				if len(snap.NextHop) != g.NumNodes() {
					errs <- "next-hop table with wrong length"
					return
				}
				usable := make(map[wire.LinkID]bool, len(snap.Incident))
				for _, inc := range snap.Incident {
					usable[inc.Link] = inc.Usable
				}
				for _, hop := range snap.NextHop {
					if hop.OK && !usable[hop.Link] {
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
		views.version++
		e.Invalidate()
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
