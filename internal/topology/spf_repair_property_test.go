package topology

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"sonet/internal/wire"
)

// checkRepairExact asserts the incrementally repaired tree is bit-for-bit
// identical to a full recompute: distances and parents everywhere, vias
// wherever a parent exists. This is stronger than path equivalence — it is
// the invariant that lets a node repairing incrementally agree with a node
// recomputing fully on every equal-cost tie.
func checkRepairExact(t *testing.T, v *View, full, inc *SPT) {
	t.Helper()
	n := v.G.NumNodes()
	for i := 0; i < n; i++ {
		id := v.G.Nodes()[i]
		if full.dist[i] != inc.dist[i] {
			t.Fatalf("node %v: full dist %v, repaired dist %v", id, full.dist[i], inc.dist[i])
		}
		if full.parent[i] != inc.parent[i] {
			t.Fatalf("node %v: full parent %d, repaired parent %d", id, full.parent[i], inc.parent[i])
		}
		if full.parent[i] >= 0 && full.via[i] != inc.via[i] {
			t.Fatalf("node %v: full via %d, repaired via %d", id, full.via[i], inc.via[i])
		}
	}
}

// checkChildLists asserts the repaired tree's child lists stay consistent
// with its parent array: every parented node appears exactly once in its
// parent's list and nowhere else. SPTRepair depends on this to enumerate
// detached subtrees.
func checkChildLists(t *testing.T, inc *SPT) {
	t.Helper()
	if inc.childDirty {
		return
	}
	n := len(inc.parent)
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -2
	}
	for p := 0; p < n; p++ {
		for c := inc.firstChild[p]; c >= 0; c = inc.nextSib[c] {
			if seen[c] != -2 {
				t.Fatalf("node index %d appears in child lists of both %d and %d", c, seen[c], p)
			}
			seen[c] = int32(p)
		}
	}
	for i := 0; i < n; i++ {
		if inc.parent[i] != seen[i] && !(inc.parent[i] < 0 && seen[i] == -2) {
			t.Fatalf("node index %d: parent %d but child lists say %d", i, inc.parent[i], seen[i])
		}
	}
}

// mutateOneLink applies one random single-link change through the
// journaling mutators and returns the changed link, or ok=false when the
// roll was a no-op (e.g. quality already at the rolled value).
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

// TestSPTRepairMatchesFull is the tentpole differential property test:
// after every random single-link change, SPTRepair on the cached tree must
// produce exactly the tree a full SPTInto produces, across random graphs
// (with parallel links and down links), all three metrics, and long change
// sequences against the same cached tree.
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
	var inc, full SPT
	for trial := 0; trial < 40; trial++ {
		v := randomView(rng)
		nodes := v.G.Nodes()
		for _, mt := range metricsUnderTest {
			src := nodes[rng.Intn(len(nodes))]
			SPTInto(&inc, v, src, mt.m)
			for change := 0; change < 24; change++ {
				id, ok := mutateOneLink(rng, v)
				if !ok {
					continue
				}
				if !SPTRepair(&inc, v, id, mt.m) {
					t.Fatalf("trial %d metric %s: SPTRepair refused link %d", trial, mt.name, id)
				}
				SPTInto(&full, v, src, mt.m)
				checkRepairExact(t, v, &full, &inc)
				checkChildLists(t, &inc)
			}
		}
	}
}

// TestSPTRepairFlap drives a flap-faster-than-convergence sequence: the
// same tree link going down and up repeatedly, each transition repaired
// incrementally, never diverging from the full recompute. This is the
// hostile case for subtree-collapse bookkeeping — the same region detaches
// and reattaches over and over.
func TestSPTRepairFlap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var inc, full SPT
	for trial := 0; trial < 20; trial++ {
		v := randomView(rng)
		nodes := v.G.Nodes()
		src := nodes[rng.Intn(len(nodes))]
		SPTInto(&inc, v, src, ExpectedLatencyMetric)
		flap, ok := treeEdge(v, &inc)
		if !ok {
			continue
		}
		for i := 0; i < 16; i++ {
			v.SetUp(flap, !v.State[flap].Up)
			if !SPTRepair(&inc, v, flap, ExpectedLatencyMetric) {
				t.Fatalf("trial %d: SPTRepair refused flap %d of link %d", trial, i, flap)
			}
			SPTInto(&full, v, src, ExpectedLatencyMetric)
			checkRepairExact(t, v, &full, &inc)
			checkChildLists(t, &inc)
		}
	}
}

// TestSPTRepairRefusesMismatch pins the fallback contract: a tree built
// over a different graph, or an out-of-range link, is refused untouched so
// the caller recomputes fully.
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
}

// treeEdge returns a link of the tree, if it has one: the parent link of
// the first parented node in insertion order (adjacent to the root on the
// ring graphs). Flipping it takes the subtree collapse-and-reseed path, not
// the no-op an off-tree link gets.
func treeEdge(v *View, spt *SPT) (wire.LinkID, bool) {
	for _, n := range v.G.Nodes() {
		if l, ok := spt.ParentLink(n); ok {
			return l, true
		}
	}
	return 0, false
}

// TestSPTRepairAllocBudget pins the performance contract (`make
// bench-guard`): once the tree's scratch is warmed (including the lazily
// built child lists), repairing a flipped tree edge allocates nothing and
// the incremental/repaired-node counters advance — on a random graph and
// on the EXP-CONV ring-plus-chords graphs up to 1024 nodes.
func TestSPTRepairAllocBudget(t *testing.T) {
	views := []*View{randomView(rand.New(rand.NewSource(12345)))}
	for _, n := range []int{16, 64, 256, 1024} {
		views = append(views, ringView(t, n))
	}
	for _, v := range views {
		src := v.G.Nodes()[0]
		var spt SPT
		SPTInto(&spt, v, src, ExpectedLatencyMetric)
		flap, ok := treeEdge(v, &spt)
		if !ok {
			t.Fatalf("%d nodes: tree has no edge", v.G.NumNodes())
		}
		// Warm the child lists with one repair before measuring.
		v.SetUp(flap, false)
		if !SPTRepair(&spt, v, flap, ExpectedLatencyMetric) {
			t.Fatal("warmup repair refused")
		}
		before := SPFStatsSnapshot()
		up := false
		allocs := testing.AllocsPerRun(100, func() {
			v.SetUp(flap, up)
			up = !up
			if !SPTRepair(&spt, v, flap, ExpectedLatencyMetric) {
				t.Fatal("repair refused")
			}
		})
		if allocs != 0 {
			t.Fatalf("%d nodes: warmed SPTRepair allocates %.1f/op, want 0", v.G.NumNodes(), allocs)
		}
		after := SPFStatsSnapshot()
		if after.Incrementals <= before.Incrementals {
			t.Fatalf("incremental counter did not advance: %+v -> %+v", before, after)
		}
		if after.RepairedNodes < before.RepairedNodes {
			t.Fatalf("repaired-node counter went backwards: %+v -> %+v", before, after)
		}
		// And the repaired tree still matches a full recompute.
		var full SPT
		SPTInto(&full, v, src, ExpectedLatencyMetric)
		checkRepairExact(t, v, &full, &spt)
	}
}

// TestViewChangeJournal pins the ChangesSince contract the routing engine
// depends on: exact per-version link attribution, overflow and Invalidate
// reported as untracked, and no allocation when the caller's buffer has
// capacity.
func TestViewChangeJournal(t *testing.T) {
	g := NewGraph()
	var links []wire.LinkID
	for i := 0; i < 4; i++ {
		id, err := g.AddLink(wire.NodeID(i+1), wire.NodeID(i+2), time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, id)
	}
	v := NewView(g)
	base := v.Version()
	v.SetUp(links[2], false)
	v.SetQuality(links[1], 5*time.Millisecond, 0.1)
	v.SetUp(links[2], true)
	var buf [journalCap]wire.LinkID
	got, ok := v.ChangesSince(base, buf[:0])
	if !ok {
		t.Fatal("journal lost a fully tracked span")
	}
	want := []wire.LinkID{links[2], links[1], links[2]}
	if len(got) != len(want) {
		t.Fatalf("ChangesSince = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ChangesSince = %v, want %v", got, want)
		}
	}
	// No-op mutators journal nothing.
	v.SetUp(links[2], true)
	if v.SetQuality(links[1], 5*time.Millisecond, 0.1) {
		t.Fatal("no-op SetQuality reported a change")
	}
	if got, ok := v.ChangesSince(v.Version(), buf[:0]); !ok || len(got) != 0 {
		t.Fatalf("empty span = %v, %v; want empty, true", got, ok)
	}
	// Invalidate is an untracked bump.
	base = v.Version()
	v.Invalidate()
	if _, ok := v.ChangesSince(base, buf[:0]); ok {
		t.Fatal("Invalidate span reported as tracked")
	}
	// But later tracked spans recover.
	base = v.Version()
	v.SetUp(links[0], false)
	if got, ok := v.ChangesSince(base, buf[:0]); !ok || len(got) != 1 || got[0] != links[0] {
		t.Fatalf("post-Invalidate span = %v, %v", got, ok)
	}
	// Overflow: more bumps than the journal holds.
	base = v.Version()
	for i := 0; i <= journalCap; i++ {
		v.SetUp(links[0], i%2 == 0)
	}
	if _, ok := v.ChangesSince(base, buf[:0]); ok {
		t.Fatal("overflowed span reported as tracked")
	}
	// A future version is nonsense and must be untracked.
	if _, ok := v.ChangesSince(v.Version()+1, buf[:0]); ok {
		t.Fatal("future version reported as tracked")
	}
	// Zero allocations with a capacious caller buffer.
	base = v.Version()
	v.SetUp(links[3], false)
	v.SetUp(links[3], true)
	allocs := testing.AllocsPerRun(50, func() {
		if got, ok := v.ChangesSince(base, buf[:0]); !ok || len(got) != 2 {
			t.Fatalf("span = %v, %v", got, ok)
		}
	})
	if allocs != 0 {
		t.Fatalf("ChangesSince allocates %.1f/op, want 0", allocs)
	}
}

// TestSPTRepairDisconnect pins the severed-component case directly: cutting
// a bridge detaches a whole side to +Inf, restoring it reattaches, and both
// transitions match the full recompute.
func TestSPTRepairDisconnect(t *testing.T) {
	g := NewGraph()
	// 1-2-3 chain bridged to 4-5-6 chain by a single link 3-4.
	ids := []wire.NodeID{1, 2, 3, 4, 5, 6}
	for _, id := range ids {
		g.AddNode(id)
	}
	var bridge wire.LinkID
	mk := func(a, b wire.NodeID) wire.LinkID {
		id, err := g.AddLink(a, b, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	mk(1, 2)
	mk(2, 3)
	bridge = mk(3, 4)
	mk(4, 5)
	mk(5, 6)
	v := NewView(g)
	var inc, full SPT
	SPTInto(&inc, v, 1, LatencyMetric)
	if !inc.Reachable(6) {
		t.Fatal("6 unreachable before cut")
	}
	v.SetUp(bridge, false)
	if !SPTRepair(&inc, v, bridge, LatencyMetric) {
		t.Fatal("repair refused bridge cut")
	}
	if inc.Reachable(4) || inc.Reachable(5) || inc.Reachable(6) {
		t.Fatal("far side still reachable after bridge cut")
	}
	if !inc.Reachable(3) {
		t.Fatal("near side lost after bridge cut")
	}
	SPTInto(&full, v, 1, LatencyMetric)
	checkRepairExact(t, v, &full, &inc)
	v.SetUp(bridge, true)
	if !SPTRepair(&inc, v, bridge, LatencyMetric) {
		t.Fatal("repair refused bridge restore")
	}
	if !inc.Reachable(6) {
		t.Fatal("far side still unreachable after bridge restore")
	}
	SPTInto(&full, v, 1, LatencyMetric)
	checkRepairExact(t, v, &full, &inc)
}

// BenchmarkSPF is the control-plane microbenchmark: one shortest-path tree
// on the EXP-CONV graphs. dense is a full recompute into warmed scratch;
// incremental is one churn event repaired in place — the tree edge next to
// the root goes down, or comes back — which is the expensive
// collapse-and-reseed case, not the no-op an off-tree link gets (the
// repository benchmark's topology.spf_repair_ns averages over every link
// of its graph instead); reference is the retained map-based Dijkstra,
// whose constant factor the small sizes establish.
func BenchmarkSPF(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024, 4096, 10240} {
		v := ringView(b, n)
		src := v.G.Nodes()[0]
		b.Run(fmt.Sprintf("dense-%d", n), func(b *testing.B) {
			var spt SPT
			SPTInto(&spt, v, src, LatencyMetric)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				SPTInto(&spt, v, src, LatencyMetric)
			}
		})
		b.Run(fmt.Sprintf("incremental-%d", n), func(b *testing.B) {
			var spt SPT
			SPTInto(&spt, v, src, LatencyMetric)
			lid, ok := treeEdge(v, &spt)
			if !ok {
				b.Fatal("tree has no edge")
			}
			repair := func(i int) {
				v.SetUp(lid, i%2 == 1)
				if !SPTRepair(&spt, v, lid, LatencyMetric) {
					b.Fatal("repair refused")
				}
			}
			repair(0)
			repair(1) // warm both flip directions
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repair(i)
			}
			b.StopTimer()
			v.SetUp(lid, true)
		})
		if n <= 256 {
			b.Run(fmt.Sprintf("reference-%d", n), func(b *testing.B) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if t := ReferenceShortestPaths(v, src, LatencyMetric); t.Src != src {
						b.Fatal("bad root")
					}
				}
			})
		}
	}
}
