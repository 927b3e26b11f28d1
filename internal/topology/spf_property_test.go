package topology

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sonet/internal/wire"
)

// randomView builds a random connected-ish graph with non-contiguous node
// IDs (exercising the dense index mapping), random latencies and losses,
// and a random initial up/down assignment.
func randomView(rng *rand.Rand) *View {
	g := NewGraph()
	n := 2 + rng.Intn(39)
	ids := make([]wire.NodeID, n)
	for i := range ids {
		// Spread IDs out and insert them in shuffled order so dense index
		// order differs from NodeID order.
		ids[i] = wire.NodeID(1 + i*3 + rng.Intn(3))
	}
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids {
		g.AddNode(id)
	}
	// A random spanning chain plus extra chords; duplicate pairs allowed
	// (parallel links exercise the first-found LinkBetween contract).
	addLink := func(a, b wire.NodeID) {
		if a == b {
			return
		}
		lat := time.Duration(1+rng.Intn(40)) * time.Millisecond
		_, _ = g.AddLink(a, b, lat)
	}
	for i := 1; i < n; i++ {
		addLink(ids[i-1], ids[i])
	}
	extra := rng.Intn(2 * n)
	for i := 0; i < extra && g.NumLinks() < wire.MaxLinks; i++ {
		addLink(ids[rng.Intn(n)], ids[rng.Intn(n)])
	}
	v := NewView(g)
	for i := range v.State {
		v.State[i].Loss = rng.Float64() * 0.3
		if rng.Intn(5) == 0 {
			v.SetUp(wire.LinkID(i), false)
		}
	}
	return v
}

// checkSPTEquiv asserts the dense tree matches the reference exactly: the
// two pop vertices in the same (dist, NodeID) order and relax in the same
// adjacency order, so distances, reachability, next hops, and paths must
// be identical — including equal-cost tie resolution.
func checkSPTEquiv(t *testing.T, v *View, dense *SPT, ref *ReferenceSPT) {
	t.Helper()
	for _, n := range v.G.Nodes() {
		dd, dok := dense.Dist(n)
		rd, rok := ref.Dist(n)
		if dok != rok || (dok && dd != rd) {
			t.Fatalf("src %v dst %v: dense dist %v,%v; reference %v,%v", dense.Src, n, dd, dok, rd, rok)
		}
		if dense.Reachable(n) != ref.Reachable(n) {
			t.Fatalf("src %v dst %v: reachability disagrees", dense.Src, n)
		}
		dh, dhok := dense.NextHop(n)
		rh, rhok := ref.NextHop(n)
		if dhok != rhok || (dhok && dh != rh) {
			t.Fatalf("src %v dst %v: dense next hop %v,%v; reference %v,%v", dense.Src, n, dh, dhok, rh, rhok)
		}
		dp, rp := dense.Path(n), ref.Path(n)
		if len(dp) != len(rp) {
			t.Fatalf("src %v dst %v: dense path %v; reference %v", dense.Src, n, dp, rp)
		}
		for i := range dp {
			if dp[i] != rp[i] {
				t.Fatalf("src %v dst %v: dense path %v; reference %v", dense.Src, n, dp, rp)
			}
		}
		dl, dlok := dense.ParentLink(n)
		rl, rlok := ref.ParentLink(n)
		if dlok != rlok || (dlok && dl != rl) {
			t.Fatalf("src %v dst %v: dense parent link %v,%v; reference %v,%v", dense.Src, n, dl, dlok, rl, rlok)
		}
	}
}

// TestSPFMatchesReference is the differential property test: the dense
// slice-indexed SPF must agree with the retained map-based reference
// Dijkstra across random graphs, all three metrics, and random link
// up/down sequences, while recomputing into one reused scratch arena.
func TestSPFMatchesReference(t *testing.T) {
	metricsUnderTest := []struct {
		name string
		m    Metric
	}{
		{"hop", HopMetric},
		{"latency", LatencyMetric},
		{"expected-latency", ExpectedLatencyMetric},
	}
	rng := rand.New(rand.NewSource(0xc0ffee))
	var scratch SPT // reused across every graph and flip to prove SPTInto reuse
	for trial := 0; trial < 60; trial++ {
		v := randomView(rng)
		nodes := v.G.Nodes()
		for _, mt := range metricsUnderTest {
			// A handful of sources per metric, plus one unknown source.
			for s := 0; s < 3; s++ {
				src := nodes[rng.Intn(len(nodes))]
				SPTInto(&scratch, v, src, mt.m)
				checkSPTEquiv(t, v, &scratch, ReferenceShortestPaths(v, src, mt.m))
			}
			unknown := wire.NodeID(60000)
			SPTInto(&scratch, v, unknown, mt.m)
			for _, n := range nodes {
				if scratch.Reachable(n) {
					t.Fatalf("unknown source reaches %v", n)
				}
			}
			// Random availability churn between recomputes.
			for flip := 0; flip < 8; flip++ {
				id := wire.LinkID(rng.Intn(v.G.NumLinks()))
				v.SetUp(id, !v.Usable(id))
				src := nodes[rng.Intn(len(nodes))]
				SPTInto(&scratch, v, src, mt.m)
				checkSPTEquiv(t, v, &scratch, ReferenceShortestPaths(v, src, mt.m))
			}
		}
	}
}

// ringView is RingWithChords(n) with every link up.
func ringView(tb testing.TB, n int) *View {
	tb.Helper()
	g, err := RingWithChords(n)
	if err != nil {
		tb.Fatal(err)
	}
	return NewView(g)
}

// TestSPTIntoAllocBudget pins the scratch-reuse contract (`make
// bench-guard`): after the first compute sizes the arena, recomputes on the
// same graph allocate nothing and the reuse counter advances — on a random
// graph and on the EXP-CONV ring-plus-chords graphs up to 1024 nodes.
func TestSPTIntoAllocBudget(t *testing.T) {
	views := []*View{randomView(rand.New(rand.NewSource(42)))}
	for _, n := range []int{16, 64, 256, 1024} {
		views = append(views, ringView(t, n))
	}
	var spt SPT
	for _, v := range views {
		src := v.G.Nodes()[0]
		SPTInto(&spt, v, src, LatencyMetric)
		before := SPFStatsSnapshot()
		allocs := testing.AllocsPerRun(100, func() {
			SPTInto(&spt, v, src, LatencyMetric)
		})
		if allocs != 0 {
			t.Fatalf("%d nodes: warmed SPTInto allocates %.1f/op, want 0", v.G.NumNodes(), allocs)
		}
		after := SPFStatsSnapshot()
		if after.Runs <= before.Runs {
			t.Fatalf("SPF run counter did not advance: %+v -> %+v", before, after)
		}
		if after.ScratchReuses <= before.ScratchReuses {
			t.Fatalf("scratch reuse counter did not advance: %+v -> %+v", before, after)
		}
	}
	// Reuse across graphs of different sizes must stay correct (and free
	// when shrinking).
	small := NewGraph()
	for i := 0; i < 3; i++ {
		if _, err := small.AddLink(wire.NodeID(100+i), wire.NodeID(101+i), 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	sv := NewView(small)
	SPTInto(&spt, sv, 100, LatencyMetric)
	checkSPTEquiv(t, sv, &spt, ReferenceShortestPaths(sv, 100, LatencyMetric))
}

// TestSPTZeroValue pins that a zero SPT answers queries as an empty tree.
func TestSPTZeroValue(t *testing.T) {
	var spt SPT
	if spt.Reachable(1) {
		t.Fatal("zero SPT claims reachability")
	}
	if _, ok := spt.Dist(1); ok {
		t.Fatal("zero SPT has a distance")
	}
	if p := spt.Path(1); p != nil {
		t.Fatalf("zero SPT path %v", p)
	}
	if _, ok := spt.NextHop(1); ok {
		t.Fatal("zero SPT has a next hop")
	}
	if _, ok := spt.ParentLink(1); ok {
		t.Fatal("zero SPT has a parent link")
	}
}

// TestSPFSkipsBadWeights pins the metric-hygiene contract shared with the
// reference: non-positive, infinite, or NaN link costs exclude the link.
func TestSPFSkipsBadWeights(t *testing.T) {
	g := NewGraph()
	bad, err := g.AddLink(1, 2, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(1, 3, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(3, 2, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	v := NewView(g)
	weird := func(l Link, st LinkState) float64 {
		if l.ID == bad {
			return math.NaN()
		}
		return LatencyMetric(l, st)
	}
	spt := ShortestPaths(v, 1, weird)
	ref := ReferenceShortestPaths(v, 1, weird)
	checkSPTEquiv(t, v, spt, ref)
	if hop, ok := spt.NextHop(2); !ok {
		t.Fatal("2 unreachable with NaN direct link")
	} else if l, _ := g.Link(hop); l.A != 1 || l.B != 3 {
		t.Fatalf("next hop to 2 is %v-%v, want detour via 3", l.A, l.B)
	}
}
