package routing

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sonet/internal/topology"
	"sonet/internal/wire"
)

// propertyView builds a random connected graph on nodes 1..n (a shuffled
// spanning chain plus chords) with random latencies and losses.
func propertyView(rng *rand.Rand, n int) *topology.View {
	g := topology.NewGraph()
	ids := make([]wire.NodeID, n)
	for i := range ids {
		ids[i] = wire.NodeID(i + 1)
	}
	rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	link := func(a, b wire.NodeID) {
		// AddLink refuses self links and duplicates; a refused roll is
		// just one chord fewer.
		_, _ = g.AddLink(a, b, time.Duration(1+rng.Intn(40))*time.Millisecond)
	}
	for i := 1; i < n; i++ {
		link(ids[i-1], ids[i])
	}
	for i := rng.Intn(2 * n); i > 0; i-- {
		link(ids[rng.Intn(n)], ids[rng.Intn(n)])
	}
	v := topology.NewView(g)
	for id := range v.State {
		v.SetQuality(wire.LinkID(id), v.State[id].Latency, rng.Float64()*0.2)
	}
	return v
}

// randomQuality rolls a new latency and loss for one link.
func randomQuality(rng *rand.Rand, v *topology.View, id wire.LinkID) {
	v.SetQuality(id, time.Duration(1+rng.Intn(40))*time.Millisecond, rng.Float64()*0.2)
}

// checkEngineMatchesFresh asserts that e, rooted at self, answers every
// destination of v — plus one the graph does not hold — exactly as a
// fresh topology.ShortestPaths over the same view: the next hop Decide
// forwards on, Reachable and PathTo.
func checkEngineMatchesFresh(t *testing.T, step string, e *Engine, v *topology.View, self wire.NodeID) {
	t.Helper()
	fresh := topology.ShortestPaths(v, self, topology.ExpectedLatencyMetric)
	dsts := append(slices.Clone(v.G.Nodes()), 60000)
	for _, dst := range dsts {
		p := &wire.Packet{Type: wire.PTData, Route: wire.RouteLinkState, Src: self, Dst: dst}
		d := e.Decide(p, NoLink, true)
		want, wantOK := fresh.NextHop(dst)
		switch {
		case dst == self:
			if !d.DeliverLocal || len(d.Forward) != 0 {
				t.Fatalf("%s: decision for self = %+v, want local delivery only", step, d)
			}
		case wantOK != (len(d.Forward) == 1) || wantOK && d.Forward[0] != want:
			t.Fatalf("%s: next hop %v -> %v = %v, want %v (ok %v)", step, self, dst, d.Forward, want, wantOK)
		}
		if got, want := e.Reachable(dst), fresh.Reachable(dst); got != want {
			t.Fatalf("%s: Reachable(%v) = %v, want %v", step, dst, got, want)
		}
		if got, want := e.PathTo(dst), fresh.Path(dst); !slices.Equal(got, want) {
			t.Fatalf("%s: PathTo(%v) = %v, want %v", step, dst, got, want)
		}
	}
}

// TestEngineTreeMatchesFreshSPF drives one engine through random view
// changes and holds every answer it gives to a fresh shortest-path tree
// over the same view. The engine's tree is keyed on the view object and
// its version alone, so each kind of change must reach it: single-link
// flips, a link flapping several times between two queries, multi-link
// batches, quality changes, direct State writes made visible by
// View.Invalidate, links added to the graph and taken in by View.Grow,
// and a switch to another view object (a clone at the same version whose
// state differs, or a view of another graph).
func TestEngineTreeMatchesFreshSPF(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	const n = 24
	for trial := 0; trial < 20; trial++ {
		views := &fakeViews{view: propertyView(rng, n)}
		self := wire.NodeID(1 + rng.Intn(n))
		grp := &fakeGroups{members: make(map[wire.GroupID][]wire.NodeID), local: make(map[wire.GroupID]bool)}
		e := NewEngine(self, views, grp, topology.ExpectedLatencyMetric)
		checkEngineMatchesFresh(t, "initial", e, views.view, self)
		for step := 0; step < 60; step++ {
			v := views.view
			lid := func() wire.LinkID { return wire.LinkID(rng.Intn(v.G.NumLinks())) }
			var kind string
			switch rng.Intn(7) {
			case 0:
				kind = "flip"
				id := lid()
				v.SetUp(id, !v.Usable(id))
			case 1:
				kind = "flap"
				id := lid()
				for i := 2 + rng.Intn(4); i > 0; i-- {
					v.SetUp(id, !v.Usable(id))
				}
			case 2:
				kind = "batch"
				for i := 2 + rng.Intn(4); i > 0; i-- {
					if id := lid(); rng.Intn(2) == 0 {
						v.SetUp(id, !v.Usable(id))
					} else {
						randomQuality(rng, v, id)
					}
				}
			case 3:
				kind = "quality"
				randomQuality(rng, v, lid())
			case 4:
				kind = "invalidate"
				for i := 1 + rng.Intn(3); i > 0; i-- {
					st := &v.State[lid()]
					st.Up = !st.Up
					st.Latency = time.Duration(1+rng.Intn(40)) * time.Millisecond
				}
				v.Invalidate()
			case 5:
				kind = "grow"
				// Half the new links bring a new node with them.
				a := wire.NodeID(1 + rng.Intn(v.G.NumNodes()))
				b := wire.NodeID(1 + rng.Intn(v.G.NumNodes()))
				if rng.Intn(2) == 0 {
					b = wire.NodeID(v.G.NumNodes() + 1)
				}
				if _, err := v.G.AddLink(a, b, time.Duration(1+rng.Intn(40))*time.Millisecond); err != nil {
					continue
				}
				if v.Grow() != 1 {
					t.Fatalf("trial %d step %d: Grow did not take in the new link", trial, step)
				}
			case 6:
				kind = "switch"
				if rng.Intn(2) == 0 {
					// Same version, different state: only the view
					// object tells the engine its tree is stale.
					c := v.Clone()
					st := &c.State[lid()]
					st.Up = !st.Up
					views.view = c
				} else {
					views.view = propertyView(rng, n)
				}
			}
			checkEngineMatchesFresh(t, fmt.Sprintf("trial %d step %d (%s)", trial, step, kind), e, views.view, self)
		}
	}
}
