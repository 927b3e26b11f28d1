// Package topology models the overlay graph — the logical network of
// overlay nodes and overlay links from Fig. 1 — and implements the routing
// computations of §II-B: shortest paths, k node-disjoint paths, multicast
// trees, constrained-flooding masks, and dissemination graphs.
//
// The Graph is the designed topology; a View layers the current dynamic
// state (link up/down, measured latency and loss) over it. Every node in a
// structured overlay maintains the same View via the Connectivity Graph
// Maintenance component, so all nodes deterministically compute identical
// routes.
//
// Internally the graph keeps a dense node-index table: every node gets a
// stable small integer (its insertion order), links record their endpoint
// indices, and adjacency is a slice of half-edges per node index. All
// routing computations (SPF, multicast trees, disjoint paths,
// dissemination graphs) run over this dense core, so the control plane
// recomputes routes into reusable slice scratch instead of fresh maps.
package topology

import (
	"fmt"
	"time"

	"sonet/internal/wire"
)

// Link is a designed overlay link: a logical edge between two overlay
// nodes, realized over one or more ISP backbone paths.
type Link struct {
	// ID is the link's index in the topology's link registry; it is also
	// the link's bit position in source-route bitmasks.
	ID wire.LinkID
	// A and B are the endpoints, with A < B canonically.
	A, B wire.NodeID
	// Latency is the designed one-way latency of the link (§II-A keeps
	// overlay links short, on the order of 10 ms).
	Latency time.Duration
}

// Other returns the endpoint of l opposite to n, and false if n is not an
// endpoint.
func (l Link) Other(n wire.NodeID) (wire.NodeID, bool) {
	switch n {
	case l.A:
		return l.B, true
	case l.B:
		return l.A, true
	default:
		return 0, false
	}
}

// halfLink is one directed half of an overlay link in the dense adjacency:
// the link's ID plus the dense index of the far endpoint.
type halfLink struct {
	id wire.LinkID
	to int32
}

// Graph is the designed overlay topology. The zero value is an empty
// graph; nodes and links are added with AddNode and AddLink.
type Graph struct {
	nodes []wire.NodeID
	links []Link
	// index maps a NodeID to its dense index in nodes (insertion order)
	// plus one, zero meaning absent: 4-byte entries, so at most 256 KiB.
	index wire.NodeTable[int32]
	// adj lists incident link IDs per node index (public Incident API).
	adj [][]wire.LinkID
	// dadj is the dense adjacency: half-edges by node index, in link
	// insertion order (determinism depends on this ordering).
	dadj [][]halfLink
	// ends records each link's endpoint indices: ends[id] = {index(A), index(B)}.
	ends [][2]int32
}

// NewGraph returns an empty overlay topology.
func NewGraph() *Graph { return &Graph{} }

// AddNode registers an overlay node. Adding an existing node is a no-op.
// Nothing is ever removed from a Graph (membership downs links through
// linkstate), so dense indices and LinkIDs are never reused.
func (g *Graph) AddNode(n wire.NodeID) {
	if g.indexOf(n) >= 0 {
		return
	}
	g.nodes = append(g.nodes, n)
	g.index.Put(n, int32(len(g.nodes)))
	g.adj = append(g.adj, nil)
	g.dadj = append(g.dadj, nil)
}

// indexOf returns n's dense index, or -1 when n is not in the graph.
func (g *Graph) indexOf(n wire.NodeID) int32 { return g.index.At(n) - 1 }

// MaxGraphLinks is the most links a Graph can hold: the LinkID space less
// the 0xffff sentinel (routing.NoLink). Source-route bitmasks and the
// constrained-flooding mask still cover only the first wire.MaxLinks links;
// larger graphs route with link-state unicast and multicast trees, which
// address links by ID rather than by bit position.
const MaxGraphLinks = 0xffff

// AddLink registers an overlay link between a and b with the given designed
// latency, adding the endpoints if needed, and returns its LinkID. It is
// the one gate every link passes on its way into a graph: a zero endpoint,
// a self link, a negative latency — a negative edge weight to SPF — and a
// second link between the same two nodes, in either order, are refused.
// (A node's link session is per neighbor, so a parallel link would be one
// no hello probes, usable in the view after its twin went down.) A zero
// latency is legal.
func (g *Graph) AddLink(a, b wire.NodeID, latency time.Duration) (wire.LinkID, error) {
	if a == 0 || b == 0 {
		return 0, fmt.Errorf("topology: link %v-%v has a zero endpoint", a, b)
	}
	if a == b {
		return 0, fmt.Errorf("topology: self link on %v", a)
	}
	if latency < 0 {
		return 0, fmt.Errorf("topology: link %v-%v has negative latency %v", a, b, latency)
	}
	if len(g.links) >= MaxGraphLinks {
		return 0, fmt.Errorf("topology: link limit %d reached", MaxGraphLinks)
	}
	if a > b {
		a, b = b, a
	}
	if l, ok := g.LinkBetween(a, b); ok {
		return 0, fmt.Errorf("topology: link %v-%v duplicates link %d", a, b, l.ID)
	}
	g.AddNode(a)
	g.AddNode(b)
	ai, bi := g.indexOf(a), g.indexOf(b)
	id := wire.LinkID(len(g.links))
	g.links = append(g.links, Link{ID: id, A: a, B: b, Latency: latency})
	g.ends = append(g.ends, [2]int32{ai, bi})
	g.adj[ai] = append(g.adj[ai], id)
	g.adj[bi] = append(g.adj[bi], id)
	g.dadj[ai] = append(g.dadj[ai], halfLink{id: id, to: bi})
	g.dadj[bi] = append(g.dadj[bi], halfLink{id: id, to: ai})
	return id, nil
}

// RingWithChords builds the n-node scaling graph EXP-CONV and the SPF
// tests and benchmarks share: nodes 1..n on a ring (links 0..n-1, so the
// graph stays connected with any one link down) plus an antipodal chord
// from every fourth node (links n and up) for path diversity; where the
// node across the ring has its own chord already (n a multiple of 8), the
// pair keeps that one link. From
// wire.MaxLinks/2 to wire.MaxLinks nodes the ring alone is kept — at 256
// it uses the whole source-routing link budget; past that the graph-wide
// link table (MaxGraphLinks) has room again and the chords return.
func RingWithChords(n int) (*Graph, error) {
	g := NewGraph()
	id := func(i int) wire.NodeID { return wire.NodeID(1 + i%n) }
	for i := 0; i < n; i++ {
		if _, err := g.AddLink(id(i), id(i+1), time.Duration(5+i%7)*time.Millisecond); err != nil {
			return nil, err
		}
	}
	if n < wire.MaxLinks/2 || n > wire.MaxLinks {
		for i := 0; i < n; i += 4 {
			if _, ok := g.LinkBetween(id(i), id(i+n/2)); ok {
				continue
			}
			if _, err := g.AddLink(id(i), id(i+n/2), time.Duration(8+i%5)*time.Millisecond); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Nodes returns the node IDs in insertion order. The caller must not
// modify the returned slice.
func (g *Graph) Nodes() []wire.NodeID { return g.nodes }

// NumNodes returns the number of overlay nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumLinks returns the number of overlay links.
func (g *Graph) NumLinks() int { return len(g.links) }

// NodeIndex returns the dense index of n — a stable small integer in
// [0, NumNodes) assigned at insertion — and whether n is in the graph.
// Dense indices key all slice-backed routing state (SPT scratch, next-hop
// memos).
func (g *Graph) NodeIndex(n wire.NodeID) (int, bool) {
	i := g.indexOf(n)
	return int(i), i >= 0
}

// NodeAt returns the node ID at dense index i.
func (g *Graph) NodeAt(i int) wire.NodeID { return g.nodes[i] }

// Link returns the link with the given ID.
func (g *Graph) Link(id wire.LinkID) (Link, bool) {
	if int(id) >= len(g.links) {
		return Link{}, false
	}
	return g.links[id], true
}

// Links returns all links. The caller must not modify the returned slice.
func (g *Graph) Links() []Link { return g.links }

// Incident returns the IDs of the links incident to n. The caller must not
// modify the returned slice.
func (g *Graph) Incident(n wire.NodeID) []wire.LinkID {
	if i := g.indexOf(n); i >= 0 {
		return g.adj[i]
	}
	return nil
}

// LinkBetween returns the link joining a and b, if one exists (AddLink
// admits at most one). It scans the adjacency of the endpoint with fewer
// links for the other end.
func (g *Graph) LinkBetween(a, b wire.NodeID) (Link, bool) {
	ai, bi := g.indexOf(a), g.indexOf(b)
	if ai < 0 || bi < 0 {
		return Link{}, false
	}
	if len(g.dadj[ai]) > len(g.dadj[bi]) {
		ai, bi = bi, ai
	}
	for _, h := range g.dadj[ai] {
		if h.to == bi {
			return g.links[h.id], true
		}
	}
	return Link{}, false
}

// TableBytes returns the memory of the node-index table.
func (g *Graph) TableBytes() int { return g.index.Bytes() }

// HasNode reports whether n is in the graph.
func (g *Graph) HasNode(n wire.NodeID) bool { return g.indexOf(n) >= 0 }

// LinkState is the dynamic condition of one overlay link as maintained by
// the Connectivity Graph Maintenance component: availability plus the
// current measured latency and loss rate shared among all nodes (§II-B).
type LinkState struct {
	// Up reports whether the link is currently usable.
	Up bool
	// Latency is the current measured one-way latency.
	Latency time.Duration
	// Loss is the current measured loss fraction in [0, 1].
	Loss float64
}

// journalCap is how many recent link changes a View retains for
// ChangesSince. It only needs to cover the changes between two route
// recomputes of one consumer; overflow just means a full recompute.
const journalCap = 16

// View is the designed topology combined with current link state — the
// global state every overlay node maintains.
type View struct {
	// G is the designed topology.
	G *Graph
	// State holds per-link dynamic state, indexed by LinkID. Mutating an
	// entry directly (rather than via SetUp/SetQuality) must be followed
	// by Invalidate so version-keyed caches (the flood mask, cached
	// shortest-path trees) notice.
	State []LinkState

	// version increments on every state change applied through SetUp,
	// SetQuality, or Invalidate; it keys the cached flood mask and is
	// exposed for other view-scoped memoization.
	version uint64
	// journal is a ring of the links changed by the most recent version
	// bumps: jlink[(version-1)%journalCap] is the link changed by the bump
	// to that version. Invalidate bumps the version without recording, so
	// ChangesSince detects untracked mutations by counting.
	jlink [journalCap]wire.LinkID
	jver  [journalCap]uint64
	// flood caches the constrained-flooding mask of the view at
	// floodVersion; FloodMask rebuilds it only when the version moved.
	flood        wire.Bitmask
	floodVersion uint64
	floodValid   bool
}

// NewView returns a view of g with every link up at its designed latency
// and zero loss.
func NewView(g *Graph) *View {
	st := make([]LinkState, g.NumLinks())
	for i, l := range g.Links() {
		st[i] = LinkState{Up: true, Latency: l.Latency}
	}
	return &View{G: g, State: st}
}

// Grow appends state entries for links added to G after the view was
// built, each up at its designed latency (the same optimism as NewView at
// bootstrap), and returns how many links were added. Every new link is
// journaled as a version bump, so incremental consumers (SPT repair, delta
// LSA origination) see growth as ordinary link changes; spans exceeding
// the journal fall back to full recompute exactly as for any burst.
func (v *View) Grow() int {
	added := 0
	for id := len(v.State); id < v.G.NumLinks(); id++ {
		l := v.G.links[id]
		v.State = append(v.State, LinkState{Up: true, Latency: l.Latency})
		v.version++
		v.record(wire.LinkID(id))
		added++
	}
	return added
}

// Clone returns an independent copy of the view sharing the immutable
// designed topology.
func (v *View) Clone() *View {
	c := *v
	c.State = make([]LinkState, len(v.State))
	copy(c.State, v.State)
	return &c
}

// Usable reports whether the link with the given ID is currently up.
func (v *View) Usable(id wire.LinkID) bool {
	return int(id) < len(v.State) && v.State[id].Up
}

// record journals one link change against the version just bumped to.
func (v *View) record(id wire.LinkID) {
	i := (v.version - 1) % journalCap
	v.jlink[i] = id
	v.jver[i] = v.version
}

// SetUp marks a link up or down, bumping the view version when the
// availability actually changes.
func (v *View) SetUp(id wire.LinkID, up bool) {
	if int(id) >= len(v.State) {
		return
	}
	if v.State[id].Up != up {
		v.State[id].Up = up
		v.version++
		v.record(id)
	}
}

// SetQuality updates a link's measured latency and loss, bumping the view
// version when either actually changes, and reports whether it did. Routing
// caches keyed on the version (and incremental SPT repair, via the change
// journal) see quality changes only when they go through here.
func (v *View) SetQuality(id wire.LinkID, latency time.Duration, loss float64) bool {
	if int(id) >= len(v.State) {
		return false
	}
	st := &v.State[id]
	if st.Latency == latency && st.Loss == loss {
		return false
	}
	st.Latency = latency
	st.Loss = loss
	v.version++
	v.record(id)
	return true
}

// Version returns a counter incremented on every link state change.
func (v *View) Version() uint64 { return v.version }

// Invalidate bumps the view version; callers that mutate State entries
// directly use it to invalidate version-keyed caches. The bump is
// deliberately not journaled: consumers tracking changes via ChangesSince
// observe an untracked gap and fall back to a full recompute.
func (v *View) Invalidate() { v.version++ }

// ChangesSince returns the links changed by every version bump after old,
// appended to buf, and whether the journal covers that whole span. It
// reports ok=false when the span exceeds the journal capacity or includes
// untracked bumps (Invalidate, or a concurrent overwrite); callers must
// then treat the view as arbitrarily changed. The same link may appear
// multiple times when it changed repeatedly.
func (v *View) ChangesSince(old uint64, buf []wire.LinkID) ([]wire.LinkID, bool) {
	if old > v.version {
		return buf, false
	}
	n := v.version - old
	if n == 0 {
		return buf, true
	}
	if n > journalCap {
		return buf, false
	}
	for ver := old + 1; ver <= v.version; ver++ {
		i := (ver - 1) % journalCap
		if v.jver[i] != ver {
			return buf, false
		}
		buf = append(buf, v.jlink[i])
	}
	return buf, true
}

// FloodMask returns the bitmask of all currently usable links — the
// constrained-flooding dissemination set (§IV-B). The mask is cached and
// rebuilt only when the view version moves (availability changes).
func (v *View) FloodMask() wire.Bitmask {
	if v.floodValid && v.floodVersion == v.version {
		return v.flood
	}
	var m wire.Bitmask
	for id := range v.State {
		if v.State[id].Up {
			m.Set(wire.LinkID(id))
		}
	}
	v.flood = m
	v.floodVersion = v.version
	v.floodValid = true
	return m
}

// Metric scores a link for routing; lower is better. Metrics must be
// positive for usable links.
type Metric func(Link, LinkState) float64

// HopMetric counts every usable link as cost 1 (shortest hop count).
func HopMetric(Link, LinkState) float64 { return 1 }

// LatencyMetric uses the link's current latency in milliseconds.
func LatencyMetric(_ Link, st LinkState) float64 {
	return float64(st.Latency) / float64(time.Millisecond)
}

// ExpectedLatencyMetric penalizes lossy links the way Spines-style overlays
// do: the cost of a link grows with the expected number of transmissions
// needed to cross it, so routing prefers clean paths but will tolerate some
// loss when the latency advantage is large.
func ExpectedLatencyMetric(l Link, st LinkState) float64 {
	loss := st.Loss
	if loss > 0.99 {
		loss = 0.99
	}
	ms := float64(st.Latency) / float64(time.Millisecond)
	if ms <= 0 {
		ms = 0.001
	}
	return ms * (1 + 50*loss)
}

// PathMask returns the bitmask of the links along a node path.
func (v *View) PathMask(path []wire.NodeID) (wire.Bitmask, error) {
	var m wire.Bitmask
	for i := 0; i+1 < len(path); i++ {
		l, ok := v.G.LinkBetween(path[i], path[i+1])
		if !ok {
			return m, fmt.Errorf("topology: no link %v-%v in path", path[i], path[i+1])
		}
		m.Set(l.ID)
	}
	return m, nil
}

// PathLatency sums current link latencies along a node path.
func (v *View) PathLatency(path []wire.NodeID) (time.Duration, error) {
	var total time.Duration
	for i := 0; i+1 < len(path); i++ {
		l, ok := v.G.LinkBetween(path[i], path[i+1])
		if !ok {
			return 0, fmt.Errorf("topology: no link %v-%v in path", path[i], path[i+1])
		}
		total += v.State[l.ID].Latency
	}
	return total, nil
}
