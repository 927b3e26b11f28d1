package routing

import (
	"sync/atomic"

	"sonet/internal/wire"
)

// Snapshot is an immutable, atomically-published copy of one node's
// forwarding state: the next-hop table, the constrained-flooding mask,
// the node's incident links with their usability, the multicast trees
// computed so far, and local group membership. The control shard's
// routing engine republishes a fresh snapshot after every SPF and every
// membership change (Engine.Publish); data shards load the current
// pointer once per packet and read it without locks. Because the whole
// snapshot swaps as one pointer, a reader can never observe a next hop
// from one SPF paired with a tree or usability column from another —
// Version and Check stamp both ends of the struct so tests can assert
// exactly that. A snapshot shares no memory with the engine, its view or
// the topology graph, which keep changing on the control shard (runtime
// admission adds nodes) while data shards read.
type Snapshot struct {
	// Version numbers the publication; it increments on every Publish.
	Version uint64
	// Self is the node the snapshot belongs to.
	Self wire.NodeID
	// NextHop holds, by destination ID, the incident link toward the next
	// hop of each destination reachable at publication plus one (link IDs
	// stop below NoLink, so it never wraps), sized to the largest such ID;
	// zero, or an ID past the end, is no route (the packet is dropped).
	NextHop wire.NodeTable[wire.LinkID]
	// Flood is the constrained-flooding link mask at publication.
	Flood wire.Bitmask
	// Incident lists the node's incident links and whether the shared view
	// considered each usable.
	Incident []SnapIncident
	// Trees carries the multicast trees the engine had computed under the
	// current view and group versions. A missing (source, group) pair is
	// a snapshot miss: the packet is handed to the control shard, which
	// computes the tree and republishes.
	Trees map[TreeKey]wire.Bitmask
	// Local is the set of groups with local members at publication.
	Local map[wire.GroupID]struct{}
	// Check repeats Version as the last field written before publication;
	// Torn() compares them. With publication by atomic pointer swap the
	// two can never differ — the field exists so the property is testable
	// rather than assumed.
	Check uint64
}

// SnapIncident is one incident-link entry for mask and flood fan-out.
type SnapIncident struct {
	// Link is the incident link id (the bit tested against masks).
	Link wire.LinkID
	// Usable reports the shared view's verdict at publication.
	Usable bool
}

// TreeKey identifies one source-rooted multicast tree.
type TreeKey struct {
	Src   wire.NodeID
	Group wire.GroupID
}

// nextHop returns the link of the unicast next hop toward dst.
func (s *Snapshot) nextHop(dst wire.NodeID) (wire.LinkID, bool) {
	hop := s.NextHop.At(dst)
	return hop - 1, hop != 0
}

func (s *Snapshot) floodMask() wire.Bitmask { return s.Flood }

// treeMask returns the multicast-tree mask for (src, group), reporting a
// miss when the engine had not computed that tree at publication.
func (s *Snapshot) treeMask(src wire.NodeID, group wire.GroupID) (wire.Bitmask, bool) {
	m, ok := s.Trees[TreeKey{Src: src, Group: group}]
	return m, ok
}

// localMember reports whether the node had local members of g at
// publication.
func (s *Snapshot) localMember(g wire.GroupID) bool {
	_, ok := s.Local[g]
	return ok
}

func (s *Snapshot) fanOut(fwd []wire.LinkID, mask wire.Bitmask, arrived wire.LinkID) []wire.LinkID {
	for i := range s.Incident {
		inc := &s.Incident[i]
		if inc.Link != arrived && inc.Usable && mask.Has(inc.Link) {
			fwd = append(fwd, inc.Link)
		}
	}
	return fwd
}

// Decide is Engine.Decide against the frozen state: the same packet,
// arrival link and first-sight verdict yield the Decision the live engine
// gave at publication. Forward is built in scratch, which the caller owns
// (a snapshot is shared by every data shard and holds no mutable state).
// ok is false on a miss — a multicast tree the engine had not computed at
// publication — which the caller hands to the control shard.
func (s *Snapshot) Decide(p *wire.Packet, arrived wire.LinkID, firstSeen bool, scratch []wire.LinkID) (Decision, bool) {
	return decide(s, s.Self, p, arrived, firstSeen, scratch)
}

// Torn reports whether the version stamps at the two ends of the snapshot
// disagree — which atomic-pointer publication makes impossible, and the
// snapshot race tests assert stays impossible.
func (s *Snapshot) Torn() bool { return s.Version != s.Check }

// LocalGroupLister is the optional GroupSource extension the publisher
// uses to freeze local membership into a snapshot. groups.Manager
// implements it; test fakes without it publish an empty local set.
type LocalGroupLister interface {
	LocalGroups() []wire.GroupID
}

// SetPublishTarget installs the pointer cell snapshots are published
// into. The node's data plane owns the cell and installs it only when it
// has data shards to read it; a nil target (the default, and every
// one-shard plane) disables publication entirely, keeping Publish free on
// the sim fast paths.
func (e *Engine) SetPublishTarget(p *atomic.Pointer[Snapshot]) { e.pub = p }

// Publish freezes the engine's current forwarding state into a fresh
// Snapshot and stores it in the publish target. It runs on the control
// shard after reconvergence, membership changes, and on-demand multicast
// tree computation; it allocates (one snapshot per control-plane event),
// which is the price of lock-free reads on every data shard.
func (e *Engine) Publish() {
	if e.pub == nil {
		return
	}
	e.selfSPT()
	v := e.viewNow()
	g := v.G
	n := g.NumNodes()
	e.pubVersion++
	snap := &Snapshot{
		Version: e.pubVersion,
		Self:    e.self,
		NextHop: make(wire.NodeTable[wire.LinkID], 0, n+1),
		Flood:   v.FloodMask(),
	}
	for i := 0; i < n; i++ {
		if dst := g.NodeAt(i); dst != e.self {
			if lid, ok := e.nextHop(dst); ok {
				snap.NextHop.Put(dst, lid+1)
			}
		}
	}
	inc := g.Incident(e.self)
	snap.Incident = make([]SnapIncident, 0, len(inc))
	for _, lid := range inc {
		snap.Incident = append(snap.Incident, SnapIncident{Link: lid, Usable: v.Usable(lid)})
	}
	e.clearStaleTrees()
	if len(e.trees) > 0 {
		snap.Trees = make(map[TreeKey]wire.Bitmask, len(e.trees))
		for k, mask := range e.trees {
			snap.Trees[TreeKey{Src: k.src, Group: k.group}] = mask
		}
	}
	if lg, ok := e.groups.(LocalGroupLister); ok {
		if locals := lg.LocalGroups(); len(locals) > 0 {
			snap.Local = make(map[wire.GroupID]struct{}, len(locals))
			for _, gid := range locals {
				snap.Local[gid] = struct{}{}
			}
		}
	}
	snap.Check = snap.Version
	e.pubDirty = false
	e.pub.Store(snap)
}

// PublishIfDirty republishes when forwarding state changed since the last
// publication through a path that does not signal the node (today: a
// multicast tree computed on demand during packet routing). The node
// calls it after routing control-shard packets that may have warmed the
// tree cache.
func (e *Engine) PublishIfDirty() {
	if e.pub != nil && e.pubDirty {
		e.Publish()
	}
}
