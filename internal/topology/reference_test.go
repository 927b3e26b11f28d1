package topology

import (
	"container/heap"
	"math"

	"sonet/internal/wire"
)

// ReferenceSPT is the map-backed shortest-path tree: the original,
// obviously-correct Dijkstra the dense SPT replaced, kept as the test
// oracle. TestSPFMatchesReference compares the dense slice-indexed SPF
// against it across random graphs, metrics, and link up/down sequences,
// and BenchmarkSPF times it beside the dense one. It allocates four maps
// per computation.
type ReferenceSPT struct {
	// Src is the root of the tree.
	Src wire.NodeID

	dist   map[wire.NodeID]float64
	parent map[wire.NodeID]wire.NodeID
	via    map[wire.NodeID]wire.LinkID
}

// ReferenceShortestPaths runs the map-backed Dijkstra from src over the
// usable links of v. It pops vertices in (distance, NodeID) order and
// relaxes on strict improvement, exactly like the dense SPF, so the two
// produce identical trees — including equal-cost tie resolution.
func ReferenceShortestPaths(v *View, src wire.NodeID, metric Metric) *ReferenceSPT {
	t := &ReferenceSPT{
		Src:    src,
		dist:   make(map[wire.NodeID]float64, v.G.NumNodes()),
		parent: make(map[wire.NodeID]wire.NodeID, v.G.NumNodes()),
		via:    make(map[wire.NodeID]wire.LinkID, v.G.NumNodes()),
	}
	if !v.G.HasNode(src) {
		return t
	}
	t.dist[src] = 0
	pq := &nodeQueue{{n: src, d: 0}}
	done := make(map[wire.NodeID]bool, v.G.NumNodes())
	for pq.Len() > 0 {
		item, ok := heap.Pop(pq).(nodeDist)
		if !ok {
			break
		}
		if done[item.n] {
			continue
		}
		done[item.n] = true
		for _, id := range v.G.Incident(item.n) {
			if !v.Usable(id) {
				continue
			}
			l, _ := v.G.Link(id)
			next, _ := l.Other(item.n)
			if done[next] {
				continue
			}
			w := metric(l, v.State[id])
			if w <= 0 || math.IsInf(w, 1) || math.IsNaN(w) {
				continue
			}
			nd := item.d + w
			if cur, seen := t.dist[next]; !seen || nd < cur {
				t.dist[next] = nd
				t.parent[next] = item.n
				t.via[next] = id
				heap.Push(pq, nodeDist{n: next, d: nd})
			}
		}
	}
	return t
}

// Reachable reports whether dst is reachable from the root.
func (t *ReferenceSPT) Reachable(dst wire.NodeID) bool {
	_, ok := t.dist[dst]
	return ok
}

// Dist returns the metric distance from the root to dst and whether dst is
// reachable.
func (t *ReferenceSPT) Dist(dst wire.NodeID) (float64, bool) {
	d, ok := t.dist[dst]
	return d, ok
}

// Path returns the node sequence from the root to dst, inclusive, or nil
// if dst is unreachable.
func (t *ReferenceSPT) Path(dst wire.NodeID) []wire.NodeID {
	if !t.Reachable(dst) {
		return nil
	}
	var rev []wire.NodeID
	for n := dst; ; {
		rev = append(rev, n)
		if n == t.Src {
			break
		}
		n = t.parent[n]
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// NextHop returns the first link to take from the root toward dst.
func (t *ReferenceSPT) NextHop(dst wire.NodeID) (wire.LinkID, bool) {
	if dst == t.Src || !t.Reachable(dst) {
		return 0, false
	}
	n := dst
	for t.parent[n] != t.Src {
		n = t.parent[n]
	}
	return t.via[n], true
}

// ParentLink returns the tree link by which dst is reached from its parent,
// valid when dst is reachable and not the root.
func (t *ReferenceSPT) ParentLink(dst wire.NodeID) (wire.LinkID, bool) {
	if dst == t.Src || !t.Reachable(dst) {
		return 0, false
	}
	return t.via[dst], true
}

// nodeDist is a priority-queue entry.
type nodeDist struct {
	n wire.NodeID
	d float64
}

type nodeQueue []nodeDist

func (q nodeQueue) Len() int { return len(q) }

// Less orders by distance, breaking ties by node ID, matching the dense
// SPF's pop order.
func (q nodeQueue) Less(i, j int) bool {
	if q[i].d != q[j].d {
		return q[i].d < q[j].d
	}
	return q[i].n < q[j].n
}
func (q nodeQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x any)   { nd, _ := x.(nodeDist); *q = append(*q, nd) }
func (q *nodeQueue) Pop() any {
	old := *q
	n := len(old)
	nd := old[n-1]
	*q = old[:n-1]
	return nd
}
