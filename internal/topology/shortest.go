package topology

import (
	"math"
	"sync"

	"sonet/internal/metrics"
	"sonet/internal/wire"
)

// spfStats counts SPF runs and scratch reuse across the process; exposed
// via SPFStatsSnapshot for experiments and monitoring.
var spfStats metrics.SPFStats

// SPFStatsSnapshot returns the process-wide SPF run/reuse counters.
func SPFStatsSnapshot() metrics.SPFSnapshot { return spfStats.Snapshot() }

// SPT is a shortest-path tree rooted at Src, computed over the usable links
// of a View with a Metric. It answers next-hop, full-path, and distance
// queries; every overlay node computes the same SPT from the same shared
// view, so hop-by-hop link-state forwarding is loop-free.
//
// The tree is stored densely, keyed by the graph's node indices, and all of
// its storage is a reusable scratch arena: recomputing with SPTInto into an
// already-sized tree performs no allocation. The zero value is an empty
// tree (nothing reachable) ready for SPTInto.
type SPT struct {
	// Src is the root of the tree.
	Src wire.NodeID

	g   *Graph
	src int32 // dense index of Src, -1 when Src is not in the graph

	// Dense per-node-index state: metric distance from the root (+Inf when
	// unreachable), tree parent index (-1 for none), and the link by which
	// the node is reached from its parent.
	dist   []float64
	parent []int32
	via    []wire.LinkID

	// Index-keyed binary heap with decrease-key: heap holds node indices
	// ordered by (dist, NodeID); pos[i] is i's position in heap, -1 when
	// absent.
	heap []int32
	pos  []int32

	// Child lists over the parent array (first child, doubly linked
	// sibling ring) let SPTRepair enumerate and detach the subtree below a
	// worsened tree edge without scanning every node. They are rebuilt
	// lazily: SPTInto only marks them dirty, and the first repair after a
	// full recompute pays the O(n) rebuild.
	firstChild []int32
	nextSib    []int32
	prevSib    []int32
	childDirty bool

	// stack and region are DFS scratch for subtree collection in SPTRepair.
	stack  []int32
	region []int32
}

// ShortestPaths runs Dijkstra from src over the usable links of v into a
// freshly allocated tree. Recompute-heavy callers should hold an SPT and
// use SPTInto to reuse its scratch.
func ShortestPaths(v *View, src wire.NodeID, metric Metric) *SPT {
	t := &SPT{}
	SPTInto(t, v, src, metric)
	return t
}

// SPTInto runs Dijkstra from src over the usable links of v, recomputing
// the tree in place. When t's scratch arena is already sized for v.G the
// recompute performs zero allocations; t may be reused across views,
// sources, and graphs of any size. The previous contents of t are
// discarded.
func SPTInto(t *SPT, v *View, src wire.NodeID, metric Metric) {
	g := v.G
	n := g.NumNodes()
	spfStats.Runs.Add(1)
	if t.grow(n) {
		spfStats.ScratchReuses.Add(1)
	}
	t.Src = src
	t.g = g
	t.childDirty = true
	for i := 0; i < n; i++ {
		t.dist[i] = math.Inf(1)
		t.parent[i] = -1
		t.pos[i] = -1
	}
	t.heap = t.heap[:0]
	si := g.indexOf(src)
	t.src = si
	if si < 0 {
		return
	}
	t.dist[si] = 0
	t.heapPush(si)
	for len(t.heap) > 0 {
		u := t.heapPop()
		du := t.dist[u]
		for _, h := range g.dadj[u] {
			if !v.Usable(h.id) {
				continue
			}
			w := metric(g.links[h.id], v.State[h.id])
			if w <= 0 || math.IsInf(w, 1) || math.IsNaN(w) {
				continue
			}
			// Strict improvement only: with positive weights a popped
			// vertex's distance is final, so no done-set is needed.
			if nd := du + w; nd < t.dist[h.to] {
				t.dist[h.to] = nd
				t.parent[h.to] = u
				t.via[h.to] = h.id
				if t.pos[h.to] >= 0 {
					t.heapUp(int(t.pos[h.to]))
				} else {
					t.heapPush(h.to)
				}
			}
		}
	}
}

// grow sizes the scratch arena for n nodes and reports whether the
// existing arena was reused without allocating.
func (t *SPT) grow(n int) bool {
	if cap(t.dist) < n {
		t.dist = make([]float64, n)
		t.parent = make([]int32, n)
		t.via = make([]wire.LinkID, n)
		t.pos = make([]int32, n)
		t.heap = make([]int32, 0, n)
		t.firstChild = make([]int32, n)
		t.nextSib = make([]int32, n)
		t.prevSib = make([]int32, n)
		t.stack = make([]int32, 0, n)
		t.region = make([]int32, 0, n)
		t.childDirty = true
		return false
	}
	t.dist = t.dist[:n]
	t.parent = t.parent[:n]
	t.via = t.via[:n]
	t.pos = t.pos[:n]
	t.firstChild = t.firstChild[:n]
	t.nextSib = t.nextSib[:n]
	t.prevSib = t.prevSib[:n]
	return true
}

// less orders node indices by (distance, NodeID). Breaking distance ties
// by node ID keeps every overlay node that computes a tree from the same
// shared view popping vertices in the same order and therefore building
// the identical tree — equal-cost paths must not be resolved differently
// at different nodes.
func (t *SPT) less(a, b int32) bool {
	if t.dist[a] != t.dist[b] {
		return t.dist[a] < t.dist[b]
	}
	return t.g.nodes[a] < t.g.nodes[b]
}

func (t *SPT) heapPush(i int32) {
	t.pos[i] = int32(len(t.heap))
	t.heap = append(t.heap, i)
	t.heapUp(len(t.heap) - 1)
}

func (t *SPT) heapPop() int32 {
	root := t.heap[0]
	last := len(t.heap) - 1
	t.heap[0] = t.heap[last]
	t.pos[t.heap[0]] = 0
	t.heap = t.heap[:last]
	if last > 0 {
		t.heapDown(0)
	}
	t.pos[root] = -1
	return root
}

func (t *SPT) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.less(t.heap[i], t.heap[p]) {
			break
		}
		t.heapSwap(i, p)
		i = p
	}
}

func (t *SPT) heapDown(i int) {
	n := len(t.heap)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && t.less(t.heap[r], t.heap[l]) {
			m = r
		}
		if !t.less(t.heap[m], t.heap[i]) {
			return
		}
		t.heapSwap(i, m)
		i = m
	}
}

func (t *SPT) heapSwap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.pos[t.heap[i]] = int32(i)
	t.pos[t.heap[j]] = int32(j)
}

// lookup returns dst's dense index, or -1 when dst is unknown or the tree
// is empty.
func (t *SPT) lookup(dst wire.NodeID) int32 {
	if t.g == nil {
		return -1
	}
	return t.g.indexOf(dst)
}

// Reachable reports whether dst is reachable from the root.
func (t *SPT) Reachable(dst wire.NodeID) bool {
	i := t.lookup(dst)
	return i >= 0 && !math.IsInf(t.dist[i], 1)
}

// Dist returns the metric distance from the root to dst and whether dst is
// reachable.
func (t *SPT) Dist(dst wire.NodeID) (float64, bool) {
	i := t.lookup(dst)
	if i < 0 || math.IsInf(t.dist[i], 1) {
		return 0, false
	}
	return t.dist[i], true
}

// Path returns the node sequence from the root to dst, inclusive, or nil
// if dst is unreachable.
func (t *SPT) Path(dst wire.NodeID) []wire.NodeID {
	i := t.lookup(dst)
	if i < 0 || math.IsInf(t.dist[i], 1) {
		return nil
	}
	var rev []wire.NodeID
	for {
		rev = append(rev, t.g.nodes[i])
		if i == t.src {
			break
		}
		i = t.parent[i]
	}
	for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
		rev[a], rev[b] = rev[b], rev[a]
	}
	return rev
}

// NextHop returns the first link to take from the root toward dst.
func (t *SPT) NextHop(dst wire.NodeID) (wire.LinkID, bool) {
	i := t.lookup(dst)
	if i < 0 || i == t.src || math.IsInf(t.dist[i], 1) {
		return 0, false
	}
	for t.parent[i] != t.src {
		i = t.parent[i]
	}
	return t.via[i], true
}

// ParentLink returns the tree link by which dst is reached from its parent,
// valid when dst is reachable and not the root.
func (t *SPT) ParentLink(dst wire.NodeID) (wire.LinkID, bool) {
	i := t.lookup(dst)
	if i < 0 || i == t.src || math.IsInf(t.dist[i], 1) {
		return 0, false
	}
	return t.via[i], true
}

// maskTo sets, in m, the links of the tree path from the root to node
// index i (which must be reachable).
func (t *SPT) maskTo(i int32, m *wire.Bitmask) {
	for i != t.src {
		m.Set(t.via[i])
		i = t.parent[i]
	}
}

// sptPool recycles SPT scratch arenas for the free-function computations
// (multicast trees, anycast, dissemination fans) so they stay cheap under
// churn without each caller owning scratch.
var sptPool = sync.Pool{New: func() any { return new(SPT) }}

func acquireSPT() *SPT  { return sptPool.Get().(*SPT) }
func releaseSPT(t *SPT) { sptPool.Put(t) }
