package topology

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"sonet/internal/wire"
)

// These tests hold SPTRepair to the contract its callers rely on: it
// refuses every change and leaves the tree as it was, so the caller's
// fallback — SPTInto into the same, already warmed tree — yields exactly
// the tree a fresh computation yields.

// checkTreeExact asserts two trees over the same view are bit-for-bit
// identical: distances and parents everywhere, vias wherever a parent
// exists. Equal-cost ties must resolve the same way in warmed scratch as
// in fresh scratch.
func checkTreeExact(t *testing.T, v *View, want, got *SPT) {
	t.Helper()
	for i, id := range v.G.Nodes() {
		if want.dist[i] != got.dist[i] {
			t.Fatalf("node %v: fresh dist %v, refreshed dist %v", id, want.dist[i], got.dist[i])
		}
		if want.parent[i] != got.parent[i] {
			t.Fatalf("node %v: fresh parent %d, refreshed parent %d", id, want.parent[i], got.parent[i])
		}
		if want.parent[i] >= 0 && want.via[i] != got.via[i] {
			t.Fatalf("node %v: fresh via %d, refreshed via %d", id, want.via[i], got.via[i])
		}
	}
}

// refreshTree is a caller's path after link id changed: offer the change
// to SPTRepair, and recompute with SPTInto when it refuses. It fails the
// test if SPTRepair accepts or alters the tree it refuses.
func refreshTree(t *testing.T, spt *SPT, v *View, id wire.LinkID, m Metric) {
	t.Helper()
	dist, parent, via := slices.Clone(spt.dist), slices.Clone(spt.parent), slices.Clone(spt.via)
	if SPTRepair(spt, v, id, m) {
		t.Fatalf("SPTRepair accepted link %d", id)
	}
	if !slices.Equal(dist, spt.dist) || !slices.Equal(parent, spt.parent) || !slices.Equal(via, spt.via) {
		t.Fatalf("SPTRepair altered the tree it refused (link %d)", id)
	}
	SPTInto(spt, v, spt.Src, m)
}

// mutateOneLink applies one random single-link change and returns the
// changed link, or ok=false when the roll was a no-op (e.g. quality
// already at the rolled value).
func mutateOneLink(rng *rand.Rand, v *View) (wire.LinkID, bool) {
	id := wire.LinkID(rng.Intn(v.G.NumLinks()))
	switch rng.Intn(3) {
	case 0: // availability flip
		v.SetUp(id, !v.State[id].Up)
		return id, true
	case 1: // latency change
		lat := time.Duration(1+rng.Intn(40)) * time.Millisecond
		return id, v.SetQuality(id, lat, v.State[id].Loss)
	default: // loss change
		return id, v.SetQuality(id, v.State[id].Latency, rng.Float64()*0.3)
	}
}

// treeEdge returns a link of the tree, if it has one: the parent link of
// the first parented node in insertion order.
func treeEdge(v *View, spt *SPT) (wire.LinkID, bool) {
	for _, n := range v.G.Nodes() {
		if l, ok := spt.ParentLink(n); ok {
			return l, true
		}
	}
	return 0, false
}

// TestSPTRepairMatchesFull: after every random single-link change, the
// cached tree refreshed through SPTRepair's fallback equals a full SPTInto
// into fresh scratch, across random graphs, all three metrics, and long
// change sequences against the same cached tree.
func TestSPTRepairMatchesFull(t *testing.T) {
	metricsUnderTest := []struct {
		name string
		m    Metric
	}{
		{"hop", HopMetric},
		{"latency", LatencyMetric},
		{"expected-latency", ExpectedLatencyMetric},
	}
	rng := rand.New(rand.NewSource(0xbeef))
	var cached SPT
	for trial := 0; trial < 40; trial++ {
		v := randomView(rng)
		nodes := v.G.Nodes()
		for _, mt := range metricsUnderTest {
			SPTInto(&cached, v, nodes[rng.Intn(len(nodes))], mt.m)
			for change := 0; change < 24; change++ {
				id, ok := mutateOneLink(rng, v)
				if !ok {
					continue
				}
				refreshTree(t, &cached, v, id, mt.m)
				var fresh SPT
				SPTInto(&fresh, v, cached.Src, mt.m)
				checkTreeExact(t, v, &fresh, &cached)
			}
		}
	}
}

// TestSPTRepairFlap drives one tree link down and up repeatedly against
// the same cached tree, so the warmed scratch alternates between two tree
// shapes, and checks each refresh against fresh scratch and the reference.
func TestSPTRepairFlap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var cached SPT
	for trial := 0; trial < 20; trial++ {
		v := randomView(rng)
		nodes := v.G.Nodes()
		src := nodes[rng.Intn(len(nodes))]
		SPTInto(&cached, v, src, ExpectedLatencyMetric)
		flap, ok := treeEdge(v, &cached)
		if !ok {
			continue
		}
		for i := 0; i < 16; i++ {
			v.SetUp(flap, !v.State[flap].Up)
			refreshTree(t, &cached, v, flap, ExpectedLatencyMetric)
			var fresh SPT
			SPTInto(&fresh, v, src, ExpectedLatencyMetric)
			checkTreeExact(t, v, &fresh, &cached)
			checkSPTEquiv(t, v, &cached, ReferenceShortestPaths(v, src, ExpectedLatencyMetric))
		}
	}
}

// TestSPTRepairRefusesMismatch: a tree built over a different graph, an
// out-of-range link and a zero-value tree are refused untouched, as is an
// in-range change to the tree's own view, so the caller always recomputes.
func TestSPTRepairRefusesMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	v := randomView(rng)
	other := randomView(rng)
	spt := ShortestPaths(v, v.G.Nodes()[0], LatencyMetric)
	if SPTRepair(spt, other, 0, LatencyMetric) {
		t.Fatal("SPTRepair accepted a tree built over a different graph")
	}
	if SPTRepair(spt, v, wire.LinkID(v.G.NumLinks()), LatencyMetric) {
		t.Fatal("SPTRepair accepted an out-of-range link")
	}
	var zero SPT
	if SPTRepair(&zero, v, 0, LatencyMetric) {
		t.Fatal("SPTRepair accepted a zero-value tree")
	}
	v.SetUp(0, !v.State[0].Up)
	refreshTree(t, spt, v, 0, LatencyMetric)
	checkSPTEquiv(t, v, spt, ReferenceShortestPaths(v, spt.Src, LatencyMetric))
}

// TestSPTRepairDisconnect: cutting a bridge through the caller's path
// detaches the far side to +Inf, restoring it reattaches, and both refreshed
// trees match a full recompute.
func TestSPTRepairDisconnect(t *testing.T) {
	g := NewGraph()
	// 1-2-3 chain bridged to 4-5-6 chain by a single link 3-4.
	mustLink(t, g, 1, 2, 10*time.Millisecond)
	mustLink(t, g, 2, 3, 10*time.Millisecond)
	bridge := mustLink(t, g, 3, 4, 10*time.Millisecond)
	mustLink(t, g, 4, 5, 10*time.Millisecond)
	mustLink(t, g, 5, 6, 10*time.Millisecond)
	v := NewView(g)
	var cached, fresh SPT
	SPTInto(&cached, v, 1, LatencyMetric)
	if !cached.Reachable(6) {
		t.Fatal("6 unreachable before cut")
	}
	v.SetUp(bridge, false)
	refreshTree(t, &cached, v, bridge, LatencyMetric)
	if cached.Reachable(4) || cached.Reachable(5) || cached.Reachable(6) {
		t.Fatal("far side still reachable after bridge cut")
	}
	if !cached.Reachable(3) {
		t.Fatal("near side lost after bridge cut")
	}
	SPTInto(&fresh, v, 1, LatencyMetric)
	checkTreeExact(t, v, &fresh, &cached)
	v.SetUp(bridge, true)
	refreshTree(t, &cached, v, bridge, LatencyMetric)
	if !cached.Reachable(6) {
		t.Fatal("far side still unreachable after bridge restore")
	}
	SPTInto(&fresh, v, 1, LatencyMetric)
	checkTreeExact(t, v, &fresh, &cached)
}
