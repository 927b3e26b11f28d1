// Package routing implements the routing level of the overlay node
// software architecture (Fig. 2): it decides, for each packet, whether to
// deliver it to local clients and on which overlay links to forward it,
// according to the packet's routing service — Link State, Source Based
// (bitmask), Multicast tree, or Constrained Flooding (§II-B).
//
// The engine is a pure decision component: it inspects the shared
// connectivity view and group state but performs no I/O, which makes every
// routing behaviour unit-testable in isolation.
package routing

import (
	"sync/atomic"

	"sonet/internal/topology"
	"sonet/internal/wire"
)

// NoLink is the arrival-link sentinel for locally originated packets.
const NoLink wire.LinkID = 0xffff

// maxCachedTrees caps the per-engine (source, group) multicast-tree cache.
// Beyond the cap the oldest entry is evicted, and a view or group version
// move clears it, so it cannot grow without bound either way.
const maxCachedTrees = 64

// GroupSource provides the shared group state (Fig. 2 Group State
// component).
type GroupSource interface {
	// Members returns the overlay nodes holding members of g.
	Members(g wire.GroupID) []wire.NodeID
	// LocalMember reports whether this node has local members of g.
	LocalMember(g wire.GroupID) bool
	// Version increments on membership changes.
	Version() uint64
}

// ViewSource provides the shared connectivity state (Fig. 2 Connectivity
// Graph Maintenance component). The view's own Version, which moves on
// every change to it, is the one version the engine's caches key on.
type ViewSource interface {
	// View returns the current shared view.
	View() *topology.View
}

// Decision is the routing outcome for one packet at one node.
type Decision struct {
	// DeliverLocal indicates the packet must be handed to the session
	// level for local client delivery.
	DeliverLocal bool
	// Forward lists the overlay links to transmit the packet on. The slice
	// is scratch space owned by the engine and is valid only until the next
	// Decide call; callers that need it longer must copy it.
	Forward []wire.LinkID
}

// Engine computes routing decisions for one overlay node.
type Engine struct {
	self   wire.NodeID
	views  ViewSource
	groups GroupSource
	metric topology.Metric

	// Shortest-path tree rooted at self for link-state unicast. The tree is
	// engine-owned scratch: reconvergence recomputes into it with SPTInto,
	// so a warmed reconvergence allocates nothing. lastView/lastViewVersion
	// remember which view object and version the tree reflects (lastView
	// is nil until the first computation).
	spt             topology.SPT
	lastView        *topology.View
	lastViewVersion uint64

	// nh memoizes per-destination next hops by dense node index. Entries
	// are stamped with the SPT generation that produced them; nhStamp is
	// bumped on every recompute, so stale entries miss without any clearing
	// pass (a zero-valued entry never matches because nhStamp starts at 1).
	nh      []nextHopEntry
	nhStamp uint64

	// Cached multicast trees keyed by (source, group), bounded by
	// maxCachedTrees. treeOrder tracks insertion order for FIFO capacity
	// eviction; treeVV/treeGV are the view and group versions every cached
	// tree was computed under.
	trees     map[treeKey]wire.Bitmask
	treeOrder []treeKey
	treeVV    uint64
	treeGV    uint64
	treeStats TreeCacheStats

	// fwd is the reusable backing array for Decision.Forward, so the
	// per-packet decision allocates nothing on the forwarding fast path.
	fwd []wire.LinkID

	// pub, when set, is the cell forwarding snapshots are published into
	// for lock-free readers on data shards (snapshot.go). pubVersion
	// numbers publications; pubDirty marks forwarding-state changes that
	// happened without a publish (an on-demand tree computation).
	pub        *atomic.Pointer[Snapshot]
	pubVersion uint64
	pubDirty   bool
}

type nextHopEntry struct {
	link  wire.LinkID
	ok    bool
	stamp uint64
}

type treeKey struct {
	src   wire.NodeID
	group wire.GroupID
}

// NewEngine returns a routing engine for node self. metric defaults to
// the loss-penalized expected-latency metric used by Spines-style
// overlays.
func NewEngine(self wire.NodeID, views ViewSource, groups GroupSource, metric topology.Metric) *Engine {
	if metric == nil {
		metric = topology.ExpectedLatencyMetric
	}
	return &Engine{
		self:   self,
		views:  views,
		groups: groups,
		metric: metric,
		trees:  make(map[treeKey]wire.Bitmask),
	}
}

// TreeCacheStats returns the engine's multicast-tree cache counters.
func (e *Engine) TreeCacheStats() TreeCacheStats { return e.treeStats }

// TreeCacheStats counts multicast-tree cache activity in one routing
// engine: trees memoized per (source, group) under the shared view and
// group versions, bounded by a fixed capacity. It is written and read on
// the control loop.
type TreeCacheStats struct {
	// Hits counts tree lookups served by a cached mask computed under the
	// current view and group versions.
	Hits uint64
	// Misses counts lookups that recomputed the tree.
	Misses uint64
	// Evictions counts cache entries discarded: every entry a view or
	// group version move cleared, and capacity evictions.
	Evictions uint64
}

// HitRatio returns Hits / (Hits + Misses), or 0 before the first lookup.
func (s TreeCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// table is the forwarding state one decision reads. *Engine answers from
// the live view and group state (next hops memoized per SPT, multicast
// trees computed on demand, so never a miss); *Snapshot answers from what
// the engine froze at publication.
type table interface {
	// nextHop returns the first link toward dst.
	nextHop(dst wire.NodeID) (wire.LinkID, bool)
	// floodMask returns the constrained-flooding link mask.
	floodMask() wire.Bitmask
	// treeMask returns the multicast tree for (src, group); ok is false
	// when the table does not hold it.
	treeMask(src wire.NodeID, group wire.GroupID) (mask wire.Bitmask, ok bool)
	// localMember reports whether this node has local members of g.
	localMember(g wire.GroupID) bool
	// fanOut appends to fwd the usable links of mask incident to this
	// node, except the arrival link.
	fanOut(fwd []wire.LinkID, mask wire.Bitmask, arrived wire.LinkID) []wire.LinkID
}

// decide is the routing level's one decision (§II-B) for p arriving on
// link arrived (NoLink when locally originated) at node self. Link-state
// unicast follows the next hop. Source-mask, flood and multicast packets
// fan out over their link mask and deliver locally only on first sight —
// firstSeen is the duplicate-suppression table's verdict. Forward is built
// in scratch; ok is false when t lacks the multicast tree p needs.
func decide(t table, self wire.NodeID, p *wire.Packet, arrived wire.LinkID, firstSeen bool, scratch []wire.LinkID) (d Decision, ok bool) {
	var mask wire.Bitmask
	switch p.Route {
	case wire.RouteLinkState:
		if p.Dst == self {
			d.DeliverLocal = true
		} else if next, reachable := t.nextHop(p.Dst); reachable {
			d.Forward = append(scratch[:0], next)
		}
		return d, true
	case wire.RouteSourceMask:
		mask = p.Mask
	case wire.RouteFlood:
		mask = t.floodMask()
	case wire.RouteMulticast:
		if firstSeen {
			if mask, ok = t.treeMask(p.Src, p.Group); !ok {
				return d, false
			}
		}
	default:
		return d, true
	}
	if !firstSeen {
		return d, true
	}
	// A multicast packet is for the group's local members; a mask or flood
	// packet is for this node when addressed to it explicitly, or to a
	// group with local members.
	if p.Route == wire.RouteMulticast {
		d.DeliverLocal = t.localMember(p.Group)
	} else {
		d.DeliverLocal = p.Dst == self || p.Dst == 0 && p.Group != 0 && t.localMember(p.Group)
	}
	if fwd := t.fanOut(scratch[:0], mask, arrived); len(fwd) > 0 {
		d.Forward = fwd
	}
	return d, true
}

// Decide computes the routing decision for p arriving on link arrived
// (NoLink when locally originated). firstSeen reports whether the node's
// duplicate-suppression table saw this packet for the first time; flood,
// mask, and multicast forwarding only fan out on first sight.
func (e *Engine) Decide(p *wire.Packet, arrived wire.LinkID, firstSeen bool) Decision {
	d, _ := decide(e, e.self, p, arrived, firstSeen, e.fwd)
	if d.Forward != nil {
		e.fwd = d.Forward
	}
	return d
}

func (e *Engine) viewNow() *topology.View { return e.views.View() }

// nextHop returns the first link toward dst, memoized per destination for
// the lifetime of the current SPT: the tree-walk in SPT.NextHop runs once
// per (destination, reconvergence) instead of once per packet.
func (e *Engine) nextHop(dst wire.NodeID) (wire.LinkID, bool) {
	e.selfSPT()
	i, ok := e.viewNow().G.NodeIndex(dst)
	if !ok {
		return 0, false
	}
	if i < len(e.nh) && e.nh[i].stamp == e.nhStamp {
		return e.nh[i].link, e.nh[i].ok
	}
	link, ok := e.spt.NextHop(dst)
	if i < len(e.nh) {
		e.nh[i] = nextHopEntry{link: link, ok: ok, stamp: e.nhStamp}
	}
	return link, ok
}

func (e *Engine) floodMask() wire.Bitmask { return e.viewNow().FloodMask() }

func (e *Engine) localMember(g wire.GroupID) bool { return e.groups.LocalMember(g) }

func (e *Engine) fanOut(fwd []wire.LinkID, mask wire.Bitmask, arrived wire.LinkID) []wire.LinkID {
	v := e.viewNow()
	for _, lid := range v.G.Incident(e.self) {
		if lid != arrived && mask.Has(lid) && v.Usable(lid) {
			fwd = append(fwd, lid)
		}
	}
	return fwd
}

// selfSPT returns the shortest-path tree rooted at this node, recomputing
// the engine-owned scratch with SPTInto when the shared view changed —
// another view object, or the view's version moved. The tree is a function
// of the view alone, so no state derived from an earlier view survives a
// recompute. Each recompute advances the next-hop memo stamp, invalidating
// every memoized next hop at once.
func (e *Engine) selfSPT() *topology.SPT {
	v := e.viewNow()
	vv := v.Version()
	if e.lastView == v && e.lastViewVersion == vv {
		return &e.spt
	}
	topology.SPTInto(&e.spt, v, e.self, e.metric)
	e.lastView = v
	e.lastViewVersion = vv
	e.nhStamp++
	if n := v.G.NumNodes(); cap(e.nh) < n {
		e.nh = make([]nextHopEntry, n)
	} else {
		e.nh = e.nh[:n]
	}
	return &e.spt
}

// treeMask returns the cached source-rooted tree for (src, group),
// computing it on a cache miss — the live engine always has an answer.
// Tree forwarding needs no per-packet coordination because every node
// computes the identical tree, and that rests on one invariant: between
// floods every node's view holds the same value for every link, its
// owner's included — an owned link's entry is the owner's last
// advertisement, never its latest measurement, or equal-cost paths tie-break
// differently per node (linkstate.Manager.maybeAdvertise;
// node.TestMulticastTreeAgreesOnEqualCostPaths holds it).
func (e *Engine) treeMask(src wire.NodeID, group wire.GroupID) (wire.Bitmask, bool) {
	e.clearStaleTrees()
	key := treeKey{src: src, group: group}
	if mask, ok := e.trees[key]; ok {
		e.treeStats.Hits++
		return mask, true
	}
	e.treeStats.Misses++
	// A freshly computed tree is forwarding state the published snapshot
	// does not carry yet; mark it so the control shard republishes.
	e.pubDirty = true
	mask, _ := topology.MulticastTree(e.viewNow(), src, e.groups.Members(group), e.metric)
	if len(e.trees) >= maxCachedTrees {
		e.evictOldestTree()
	}
	e.trees[key] = mask
	e.treeOrder = append(e.treeOrder, key)
	return mask, true
}

// clearStaleTrees empties the tree cache when the view or group version
// moved since its trees were computed: every cached tree was computed
// under the one pair the engine holds, so a move makes all of them stale.
func (e *Engine) clearStaleTrees() {
	vv, gv := e.viewNow().Version(), e.groups.Version()
	if vv == e.treeVV && gv == e.treeGV {
		return
	}
	e.treeVV, e.treeGV = vv, gv
	e.treeStats.Evictions += uint64(len(e.trees))
	clear(e.trees)
	e.treeOrder = e.treeOrder[:0]
}

// evictOldestTree removes the oldest cache entry (FIFO) to stay under
// maxCachedTrees.
func (e *Engine) evictOldestTree() {
	if len(e.treeOrder) == 0 {
		return
	}
	k := e.treeOrder[0]
	e.treeOrder = e.treeOrder[1:]
	delete(e.trees, k)
	e.treeStats.Evictions++
}

// AnycastResolve selects the destination node for an anycast packet: the
// nearest group member under the engine's metric.
func (e *Engine) AnycastResolve(group wire.GroupID) (wire.NodeID, bool) {
	return topology.AnycastTarget(e.viewNow(), e.self, e.groups.Members(group), e.metric)
}

// PathTo returns the current link-state path from this node to dst (for
// diagnostics and planning).
func (e *Engine) PathTo(dst wire.NodeID) []wire.NodeID {
	return e.selfSPT().Path(dst)
}

// Reachable reports whether dst is currently reachable.
func (e *Engine) Reachable(dst wire.NodeID) bool {
	return e.selfSPT().Reachable(dst)
}
