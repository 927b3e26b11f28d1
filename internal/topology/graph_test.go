package topology

import (
	"testing"
	"time"

	"sonet/internal/wire"
)

// diamond builds the 4-node diamond: 1-2-4 and 1-3-4, with a direct slow
// 1-4 chord.
//
//	    2
//	  /   \
//	1       4
//	  \   /
//	    3
//	1 ------- 4 (slow chord)
func diamond(t *testing.T) (*Graph, *View) {
	t.Helper()
	g := NewGraph()
	mustLink(t, g, 1, 2, 10*time.Millisecond)
	mustLink(t, g, 2, 4, 10*time.Millisecond)
	mustLink(t, g, 1, 3, 12*time.Millisecond)
	mustLink(t, g, 3, 4, 12*time.Millisecond)
	mustLink(t, g, 1, 4, 50*time.Millisecond)
	return g, NewView(g)
}

func mustLink(t *testing.T, g *Graph, a, b wire.NodeID, lat time.Duration) wire.LinkID {
	t.Helper()
	id, err := g.AddLink(a, b, lat)
	if err != nil {
		t.Fatalf("AddLink(%v,%v): %v", a, b, err)
	}
	return id
}

func TestGraphBasics(t *testing.T) {
	g, _ := diamond(t)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumLinks() != 5 {
		t.Fatalf("NumLinks = %d, want 5", g.NumLinks())
	}
	l, ok := g.LinkBetween(4, 2)
	if !ok {
		t.Fatal("LinkBetween(4,2) not found")
	}
	if l.A != 2 || l.B != 4 {
		t.Fatalf("link endpoints %v-%v, want canonical 2-4", l.A, l.B)
	}
	other, ok := l.Other(2)
	if !ok || other != 4 {
		t.Fatalf("Other(2) = %v,%v", other, ok)
	}
	if _, ok := l.Other(9); ok {
		t.Fatal("Other(9) = true for non-endpoint")
	}
	if _, ok := g.LinkBetween(2, 3); ok {
		t.Fatal("LinkBetween(2,3) found nonexistent link")
	}
	if len(g.Incident(1)) != 3 {
		t.Fatalf("Incident(1) = %d links, want 3", len(g.Incident(1)))
	}
}

func TestGraphRejectsSelfLink(t *testing.T) {
	g := NewGraph()
	if _, err := g.AddLink(1, 1, time.Millisecond); err == nil {
		t.Fatal("AddLink(1,1) succeeded")
	}
}

// TestGraphRejectsBadLinks: a zero endpoint and a negative latency are
// refused like a self link, and leave the graph as it was; a zero latency
// is a link.
func TestGraphRejectsBadLinks(t *testing.T) {
	g := NewGraph()
	for _, l := range []Link{{A: 0, B: 1, Latency: time.Millisecond}, {A: 2, B: 0}, {A: 1, B: 2, Latency: -time.Millisecond}} {
		if _, err := g.AddLink(l.A, l.B, l.Latency); err == nil {
			t.Fatalf("AddLink(%v, %v, %v) succeeded", l.A, l.B, l.Latency)
		}
	}
	if g.NumNodes() != 0 || g.NumLinks() != 0 {
		t.Fatalf("refused links left %d nodes and %d links", g.NumNodes(), g.NumLinks())
	}
	if _, err := g.AddLink(1, 2, 0); err != nil {
		t.Fatalf("zero-latency link refused: %v", err)
	}
}

func TestGraphAddNodeIdempotent(t *testing.T) {
	g := NewGraph()
	g.AddNode(5)
	g.AddNode(5)
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestShortestPathsPrefersLowLatency(t *testing.T) {
	_, v := diamond(t)
	spt := ShortestPaths(v, 1, LatencyMetric)
	path := spt.Path(4)
	want := []wire.NodeID{1, 2, 4}
	if len(path) != 3 || path[0] != want[0] || path[1] != want[1] || path[2] != want[2] {
		t.Fatalf("Path(4) = %v, want %v", path, want)
	}
	d, ok := spt.Dist(4)
	if !ok || d != 20 {
		t.Fatalf("Dist(4) = %v,%v, want 20ms", d, ok)
	}
	hop, ok := spt.NextHop(4)
	if !ok {
		t.Fatal("NextHop(4) not found")
	}
	l, _ := v.G.Link(hop)
	if o, _ := l.Other(1); o != 2 {
		t.Fatalf("NextHop(4) goes via %v, want 2", o)
	}
}

func TestShortestPathsHopMetricPrefersChord(t *testing.T) {
	_, v := diamond(t)
	spt := ShortestPaths(v, 1, HopMetric)
	path := spt.Path(4)
	if len(path) != 2 {
		t.Fatalf("hop-metric Path(4) = %v, want direct chord", path)
	}
}

func TestShortestPathsRoutesAroundDownLink(t *testing.T) {
	g, v := diamond(t)
	l, _ := g.LinkBetween(1, 2)
	v.SetUp(l.ID, false)
	spt := ShortestPaths(v, 1, LatencyMetric)
	path := spt.Path(4)
	if len(path) != 3 || path[1] != 3 {
		t.Fatalf("Path(4) after 1-2 failure = %v, want via 3", path)
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := NewGraph()
	mustLink(t, g, 1, 2, time.Millisecond)
	g.AddNode(3)
	v := NewView(g)
	spt := ShortestPaths(v, 1, HopMetric)
	if spt.Reachable(3) {
		t.Fatal("isolated node reported reachable")
	}
	if p := spt.Path(3); p != nil {
		t.Fatalf("Path(3) = %v, want nil", p)
	}
	if _, ok := spt.NextHop(3); ok {
		t.Fatal("NextHop to unreachable node returned ok")
	}
}

func TestShortestPathsLossPenalty(t *testing.T) {
	g := NewGraph()
	fast := mustLink(t, g, 1, 2, 10*time.Millisecond)
	mustLink(t, g, 1, 3, 15*time.Millisecond)
	mustLink(t, g, 3, 2, 15*time.Millisecond)
	v := NewView(g)
	v.State[fast].Loss = 0.20
	spt := ShortestPaths(v, 1, ExpectedLatencyMetric)
	path := spt.Path(2)
	if len(path) != 3 {
		t.Fatalf("Path(2) = %v, want detour around lossy link", path)
	}
}

func TestViewCloneIsIndependent(t *testing.T) {
	_, v := diamond(t)
	c := v.Clone()
	c.SetUp(0, false)
	if !v.Usable(0) {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestFloodMask(t *testing.T) {
	_, v := diamond(t)
	m := v.FloodMask()
	if m.Count() != 5 {
		t.Fatalf("FloodMask count = %d, want 5", m.Count())
	}
	v.SetUp(2, false)
	m = v.FloodMask()
	if m.Count() != 4 || m.Has(2) {
		t.Fatalf("FloodMask after failure = %v", m.Links())
	}
}

func TestPathMaskAndLatency(t *testing.T) {
	_, v := diamond(t)
	path := []wire.NodeID{1, 2, 4}
	m, err := v.PathMask(path)
	if err != nil {
		t.Fatalf("PathMask: %v", err)
	}
	if m.Count() != 2 {
		t.Fatalf("PathMask count = %d, want 2", m.Count())
	}
	lat, err := v.PathLatency(path)
	if err != nil {
		t.Fatalf("PathLatency: %v", err)
	}
	if lat != 20*time.Millisecond {
		t.Fatalf("PathLatency = %v, want 20ms", lat)
	}
	if _, err := v.PathMask([]wire.NodeID{1, 4, 2, 3}); err == nil {
		t.Fatal("PathMask accepted path with missing link")
	}
}
