package routing

import (
	"testing"
	"time"

	"sonet/internal/topology"
	"sonet/internal/wire"
)

// fillTrees decides one multicast packet per group, populating the tree
// cache through the public API.
func fillTrees(e *Engine, grp *fakeGroups, groups int) {
	for i := 0; i < groups; i++ {
		gid := wire.GroupID(100 + i)
		grp.members[gid] = []wire.NodeID{4}
		p := &wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: gid}
		e.Decide(p, NoLink, true)
	}
}

// moveView makes one real change to the view, so its version moves: the
// slow chord 1–4 gains a percent of loss, which no latency-metric route
// or tree uses.
func moveView(t *testing.T, g *topology.Graph, views *fakeViews) {
	t.Helper()
	lid := linkID(t, g, 1, 4)
	st := views.view.State[lid]
	if !views.view.SetQuality(lid, st.Latency, st.Loss+0.01) {
		t.Fatal("quality change did not move the view")
	}
}

func TestTreeCacheBounded(t *testing.T) {
	_, _, grp, engines := diamondWorld(t)
	e := engines[1]
	n := maxCachedTrees + 40
	fillTrees(e, grp, n)
	if len(e.trees) != maxCachedTrees {
		t.Fatalf("cache holds %d trees, want cap %d", len(e.trees), maxCachedTrees)
	}
	if len(e.treeOrder) != len(e.trees) {
		t.Fatalf("treeOrder %d entries vs %d cached", len(e.treeOrder), len(e.trees))
	}
	st := e.TreeCacheStats()
	if st.Misses != uint64(n) {
		t.Fatalf("misses = %d, want %d", st.Misses, n)
	}
	if st.Evictions != uint64(n-maxCachedTrees) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, n-maxCachedTrees)
	}
	// FIFO: the oldest groups were evicted, the newest survive.
	if _, ok := e.trees[treeKey{src: 1, group: 100}]; ok {
		t.Fatal("oldest entry survived capacity eviction")
	}
	if _, ok := e.trees[treeKey{src: 1, group: wire.GroupID(100 + n - 1)}]; !ok {
		t.Fatal("newest entry missing")
	}
}

func TestTreeCacheHitsServedFromCache(t *testing.T) {
	_, _, grp, engines := diamondWorld(t)
	e := engines[1]
	grp.members[50] = []wire.NodeID{2, 4}
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: 50}
	e.Decide(p, NoLink, true)
	for i := 0; i < 10; i++ {
		e.Decide(p, NoLink, true)
	}
	st := e.TreeCacheStats()
	if st.Misses != 1 || st.Hits != 10 {
		t.Fatalf("hits/misses = %d/%d, want 10/1", st.Hits, st.Misses)
	}
	if got := st.HitRatio(); got != 10.0/11 {
		t.Fatalf("HitRatio = %v, want 10/11", got)
	}
}

func TestTreeCachePrunesSupersededOnVersionChange(t *testing.T) {
	g, views, grp, engines := diamondWorld(t)
	e := engines[1]
	fillTrees(e, grp, 20)
	if len(e.trees) != 20 {
		t.Fatalf("cache holds %d trees before churn, want 20", len(e.trees))
	}
	before := e.TreeCacheStats()
	// A connectivity change supersedes every cached tree; the next lookup
	// prunes them all and caches only the fresh recompute.
	moveView(t, g, views)
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: 100}
	e.Decide(p, NoLink, true)
	if len(e.trees) != 1 {
		t.Fatalf("cache holds %d trees after version change, want 1", len(e.trees))
	}
	if len(e.treeOrder) != 1 {
		t.Fatalf("treeOrder %d entries after prune, want 1", len(e.treeOrder))
	}
	st := e.TreeCacheStats()
	if got := st.Evictions - before.Evictions; got != 20 {
		t.Fatalf("version change evicted %d entries, want 20", got)
	}
	// Entries refreshed under the current versions are kept by the prune.
	grp.members[777] = []wire.NodeID{4}
	e.Decide(&wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: 777}, NoLink, true)
	moveView(t, g, views)
	e.Decide(p, NoLink, true)
	e.Decide(&wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: 777}, NoLink, true)
	if len(e.trees) != 2 {
		t.Fatalf("cache holds %d trees after refresh, want 2", len(e.trees))
	}
	// 20 fills, 100 and 777 under the first change, both again under the
	// second; 20 pruned by the first change, 2 by the second.
	if st := e.TreeCacheStats(); st != (TreeCacheStats{Misses: 24, Evictions: 22}) {
		t.Fatalf("counters %+v, want 24 misses and 22 evictions", st)
	}
	// A group change supersedes both the same way, the view unchanged.
	grp.version++
	e.Decide(p, NoLink, true)
	if st := e.TreeCacheStats(); len(e.trees) != 1 || len(e.treeOrder) != 1 || st != (TreeCacheStats{Misses: 25, Evictions: 24}) {
		t.Fatalf("after a group change: %d trees, %d in order, counters %+v; want 1, 1, 25 misses and 24 evictions", len(e.trees), len(e.treeOrder), st)
	}
}

// TestNextHopMemoStampInvalidation drives the per-destination memo across
// reconvergences — an availability change, then a quality change — with
// hits between recomputes and correct fresh answers after each.
func TestNextHopMemoStampInvalidation(t *testing.T) {
	g, views, _, engines := diamondWorld(t)
	e := engines[1]
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState, Src: 1, Dst: 4}
	for i := 0; i < 5; i++ {
		d := e.Decide(p, NoLink, true)
		if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 2) {
			t.Fatalf("iteration %d forward = %v, want via 1-2", i, d.Forward)
		}
	}
	views.view.SetUp(linkID(t, g, 1, 2), false)
	for i := 0; i < 5; i++ {
		d := e.Decide(p, NoLink, true)
		if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 3) {
			t.Fatalf("post-churn iteration %d forward = %v, want via 1-3", i, d.Forward)
		}
	}
	// 1–3 slows to 40 ms: 1–3–4 costs 52 ms, the 50 ms chord wins.
	views.view.SetQuality(linkID(t, g, 1, 3), 40*time.Millisecond, 0)
	for i := 0; i < 5; i++ {
		d := e.Decide(p, NoLink, true)
		if len(d.Forward) != 1 || d.Forward[0] != linkID(t, g, 1, 4) {
			t.Fatalf("post-quality iteration %d forward = %v, want via 1-4", i, d.Forward)
		}
	}
}

// TestDecideAllocBudget pins the warmed decision fast paths at zero
// allocations: a unicast decision with the SPT warm and the destination
// memoized, a multicast decision served from the tree cache, and a flood
// decision over the cached flood mask.
func TestDecideAllocBudget(t *testing.T) {
	_, _, grp, engines := diamondWorld(t)
	grp.members[50] = []wire.NodeID{2, 4}
	for _, tc := range []struct {
		name string
		p    wire.Packet
	}{
		{"unicast", wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState, Src: 1, Dst: 4}},
		{"multicast", wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: 1, Group: 50}},
		{"flood", wire.Packet{Type: wire.PTData, Route: wire.RouteFlood, Src: 1, Dst: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := engines[1]
			p := &tc.p
			e.Decide(p, NoLink, true)
			before := e.TreeCacheStats()
			allocs := testing.AllocsPerRun(200, func() {
				e.Decide(p, NoLink, true)
			})
			if allocs != 0 {
				t.Fatalf("warmed %s Decide allocates %.1f/op, want 0", tc.name, allocs)
			}
			if p.Route == wire.RouteMulticast && e.TreeCacheStats().Misses != before.Misses {
				t.Fatal("warmed multicast Decide missed the tree cache")
			}
		})
	}
}
