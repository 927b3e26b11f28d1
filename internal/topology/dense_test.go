package topology

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"sonet/internal/wire"
)

// twoIslands builds two disconnected components: a diamond 1-2-4 / 1-3-4
// and a separate triangle 10-11-12.
func twoIslands(t *testing.T) *View {
	t.Helper()
	g := NewGraph()
	mustLink(t, g, 1, 2, 10*time.Millisecond)
	mustLink(t, g, 2, 4, 10*time.Millisecond)
	mustLink(t, g, 1, 3, 10*time.Millisecond)
	mustLink(t, g, 3, 4, 10*time.Millisecond)
	mustLink(t, g, 10, 11, 10*time.Millisecond)
	mustLink(t, g, 11, 12, 10*time.Millisecond)
	mustLink(t, g, 10, 12, 10*time.Millisecond)
	return NewView(g)
}

func TestNodeIndexStable(t *testing.T) {
	g, _ := diamond(t)
	for i, n := range g.Nodes() {
		idx, ok := g.NodeIndex(n)
		if !ok || idx != i {
			t.Fatalf("NodeIndex(%v) = %d,%v; want %d,true", n, idx, ok, i)
		}
		if g.NodeAt(idx) != n {
			t.Fatalf("NodeAt(%d) = %v, want %v", idx, g.NodeAt(idx), n)
		}
	}
	if _, ok := g.NodeIndex(99); ok {
		t.Fatal("NodeIndex(99) found for absent node")
	}
}

// TestAddLinkRefusesDuplicate: a second link between the same two nodes,
// named in either order, is refused and leaves the graph as it was — a
// parallel link would be one no link session probes.
func TestAddLinkRefusesDuplicate(t *testing.T) {
	g := NewGraph()
	id := mustLink(t, g, 1, 2, 10*time.Millisecond)
	mustLink(t, g, 2, 3, 10*time.Millisecond)
	for _, ends := range [][2]wire.NodeID{{1, 2}, {2, 1}} {
		if _, err := g.AddLink(ends[0], ends[1], 30*time.Millisecond); err == nil {
			t.Fatalf("AddLink(%v,%v) accepted a second 1-2 link", ends[0], ends[1])
		}
	}
	if n := len(g.Links()); n != 2 {
		t.Fatalf("graph holds %d links, want 2", n)
	}
	if got := len(g.Incident(1)); got != 1 {
		t.Fatalf("node 1 has %d incident links, want 1", got)
	}
	if l, ok := g.LinkBetween(2, 1); !ok || l.ID != id || l.Latency != 10*time.Millisecond {
		t.Fatalf("LinkBetween(2,1) = %+v %v, want the first 1-2 link", l, ok)
	}
}

func TestFloodMaskCachedAcrossVersions(t *testing.T) {
	_, v := diamond(t)
	all := v.FloodMask()
	if got := v.FloodMask(); got != all {
		t.Fatalf("cached flood mask changed without a version bump: %v vs %v", got, all)
	}
	v.SetUp(0, false)
	down := v.FloodMask()
	if down.Has(0) {
		t.Fatal("flood mask still contains downed link 0")
	}
	// SetUp to the same value must not bump the version.
	ver := v.Version()
	v.SetUp(0, false)
	if v.Version() != ver {
		t.Fatal("redundant SetUp bumped the view version")
	}
	// Direct State mutation is invisible until Invalidate.
	v.State[0].Up = true
	if got := v.FloodMask(); got.Has(0) {
		t.Fatal("flood mask rebuilt without a version bump")
	}
	v.Invalidate()
	if got := v.FloodMask(); !got.Has(0) {
		t.Fatal("flood mask stale after Invalidate")
	}
}

func TestKDisjointPathsDisconnected(t *testing.T) {
	v := twoIslands(t)
	// Across components: no paths, no error.
	paths, err := KDisjointPaths(v, 1, 11, 2, LatencyMetric)
	if err != nil {
		t.Fatalf("KDisjointPaths across components: %v", err)
	}
	if len(paths) != 0 {
		t.Fatalf("found %d paths across disconnected components", len(paths))
	}
	// Within the island the full disjoint set is still found.
	paths, err = KDisjointPaths(v, 10, 12, 2, LatencyMetric)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("triangle 10→12: %d disjoint paths, want 2", len(paths))
	}
}

func TestKDisjointPathsEqualCostDeterministic(t *testing.T) {
	// The diamond's two branches have equal latency (10+10 vs 10+10), so
	// both path orderings are equal-cost; the computation must still be
	// deterministic across repeated runs and across view clones.
	v := twoIslands(t)
	base, err := KDisjointPaths(v, 1, 4, 2, LatencyMetric)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != 2 {
		t.Fatalf("diamond 1→4: %d disjoint paths, want 2", len(base))
	}
	seenMid := map[wire.NodeID]bool{}
	for _, p := range base {
		if len(p) != 3 || p[0] != 1 || p[2] != 4 {
			t.Fatalf("unexpected path %v", p)
		}
		if seenMid[p[1]] {
			t.Fatalf("paths share intermediate node %v", p[1])
		}
		seenMid[p[1]] = true
	}
	for trial := 0; trial < 5; trial++ {
		again, err := KDisjointPaths(v.Clone(), 1, 4, 2, LatencyMetric)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(base) {
			t.Fatalf("trial %d: %d paths, want %d", trial, len(again), len(base))
		}
		for i := range again {
			for j := range again[i] {
				if again[i][j] != base[i][j] {
					t.Fatalf("trial %d: path %d differs: %v vs %v", trial, i, again[i], base[i])
				}
			}
		}
	}
}

func TestDissemGraphDisconnected(t *testing.T) {
	v := twoIslands(t)
	// No route between components: the base disjoint set is empty, and the
	// source fan still covers the source's own links so local repair can
	// start the moment a path heals.
	mask, err := DissemGraph(v, 1, 11, ProblemSource, LatencyMetric)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range v.G.Incident(1) {
		if !mask.Has(id) {
			t.Fatalf("source fan missing source-incident link %v", id)
		}
	}
	for _, id := range v.G.Incident(11) {
		if mask.Has(id) {
			t.Fatalf("mask crosses into disconnected component via link %v", id)
		}
	}
	none, err := DissemGraph(v, 1, 11, ProblemNone, LatencyMetric)
	if err != nil {
		t.Fatal(err)
	}
	if none != (wire.Bitmask{}) {
		t.Fatalf("ProblemNone mask non-empty across components: %v", none)
	}
}

func TestDissemGraphEqualCostDeterministic(t *testing.T) {
	v := twoIslands(t)
	for _, area := range []ProblemArea{ProblemNone, ProblemSource, ProblemDest, ProblemBoth} {
		base, err := DissemGraph(v, 1, 4, area, LatencyMetric)
		if err != nil {
			t.Fatalf("%v: %v", area, err)
		}
		for trial := 0; trial < 5; trial++ {
			again, err := DissemGraph(v.Clone(), 1, 4, area, LatencyMetric)
			if err != nil {
				t.Fatalf("%v trial %d: %v", area, trial, err)
			}
			if again != base {
				t.Fatalf("%v trial %d: mask %v differs from %v", area, trial, again, base)
			}
		}
	}
}

func TestMulticastTreeDisconnectedMembers(t *testing.T) {
	v := twoIslands(t)
	mask, covered := MulticastTree(v, 1, []wire.NodeID{2, 4, 11}, LatencyMetric)
	if len(covered) != 2 || covered[0] != 2 || covered[1] != 4 {
		t.Fatalf("covered = %v, want [2 4]", covered)
	}
	for _, id := range v.G.Incident(11) {
		if mask.Has(id) {
			t.Fatalf("tree mask crosses into disconnected component via link %v", id)
		}
	}
}

// TestDenseIndexMatchesMap checks NodeIndex, HasNode, Incident and
// LinkBetween against maps built beside the graph, over random graphs whose
// IDs are sparse and reach the ends of the 16-bit space (1, 4096, 65535).
// Some nodes are added bare after links already exist, and each graph then
// takes a runtime join — a new node and its links added after a view and a
// tree were built over it, as core.Overlay.Join does — which the grown view
// and a recomputed tree must reach.
func TestDenseIndexMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		pick := func() wire.NodeID {
			switch r.Intn(8) {
			case 0:
				return 1
			case 1:
				return 4096
			case 2:
				return 65535
			default:
				return wire.NodeID(1 + r.Intn(65535))
			}
		}
		g := NewGraph()
		index := map[wire.NodeID]int{}
		incident := map[wire.NodeID][]wire.LinkID{}
		between := map[[2]wire.NodeID]wire.LinkID{}
		add := func(n wire.NodeID) {
			g.AddNode(n)
			if _, ok := index[n]; !ok {
				index[n] = len(index)
			}
		}
		link := func(a, b wire.NodeID) {
			if a == b {
				return
			}
			key := [2]wire.NodeID{min(a, b), max(a, b)}
			if _, dup := between[key]; dup {
				if _, err := g.AddLink(a, b, time.Millisecond); err == nil {
					t.Fatalf("AddLink(%v,%v) accepted a parallel link", a, b)
				}
				return
			}
			id := mustLink(t, g, a, b, time.Duration(1+r.Intn(20))*time.Millisecond)
			for _, n := range key {
				if _, ok := index[n]; !ok {
					index[n] = len(index)
				}
				incident[n] = append(incident[n], id)
			}
			between[key] = id
		}
		var known []wire.NodeID
		for i := 0; i < 30; i++ {
			n := pick()
			if r.Intn(4) == 0 {
				add(n) // a bare node, maybe after links already exist
			} else if len(known) > 0 {
				link(n, known[r.Intn(len(known))])
			}
			known = append(known, n)
		}
		v := NewView(g)
		root := g.Nodes()[0]
		spt := ShortestPaths(v, root, HopMetric)

		joiner := pick()
		for g.HasNode(joiner) {
			joiner = pick()
		}
		add(joiner)
		link(joiner, root)
		v.Grow()
		SPTInto(spt, v, root, HopMetric)
		if !spt.Reachable(joiner) {
			t.Fatalf("seed %d: joiner %v unreachable from %v after the view grew", seed, joiner, root)
		}

		probes := append([]wire.NodeID{0, 1, 2, 4095, 4096, 4097, 65534, 65535}, known...)
		for i := 0; i < 50; i++ {
			probes = append(probes, pick())
		}
		for _, n := range probes {
			want, in := index[n]
			got, ok := g.NodeIndex(n)
			if ok != in || in && got != want {
				t.Fatalf("seed %d: NodeIndex(%v) = %d,%v; map says %d,%v", seed, n, got, ok, want, in)
			}
			if g.HasNode(n) != in {
				t.Fatalf("seed %d: HasNode(%v) = %v; map says %v", seed, n, !in, in)
			}
			if got := g.Incident(n); !slices.Equal(got, incident[n]) {
				t.Fatalf("seed %d: Incident(%v) = %v; map says %v", seed, n, got, incident[n])
			}
			for _, m := range probes[:12] {
				want, linked := between[[2]wire.NodeID{min(n, m), max(n, m)}]
				l, ok := g.LinkBetween(n, m)
				if ok != linked || linked && l.ID != want {
					t.Fatalf("seed %d: LinkBetween(%v, %v) = %v,%v; map says %v,%v", seed, n, m, l.ID, ok, want, linked)
				}
			}
		}
		for pair, want := range between {
			if l, ok := g.LinkBetween(pair[1], pair[0]); !ok || l.ID != want {
				t.Fatalf("seed %d: LinkBetween(%v, %v) = %v,%v; map says %v", seed, pair[1], pair[0], l.ID, ok, want)
			}
		}
		if g.NumNodes() != len(index) {
			t.Fatalf("seed %d: %d nodes, map has %d", seed, g.NumNodes(), len(index))
		}
	}
}
