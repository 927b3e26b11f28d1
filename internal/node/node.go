// Package node assembles the overlay node of Fig. 2: the session-facing
// packet origination and delivery interface on top, the routing level
// (routing engine, Connectivity Graph Maintenance, Group State) in the
// middle, and the per-neighbor link-level protocol instances at the
// bottom, all over an abstract underlay.
//
// A Node is the control plane over a DataPlane of one or more forwarding
// engines (shard.go). Every Node entry point must be called from the
// node's executor (the simulation scheduler in emulation, the daemon's
// control loop in deployment), which is also shard 0's; a one-shard node —
// every emulated one — is single-threaded end to end.
package node

import (
	"fmt"
	"time"

	"sonet/internal/groups"
	"sonet/internal/itmsg"
	"sonet/internal/link"
	"sonet/internal/linkstate"
	"sonet/internal/membership"
	"sonet/internal/metrics"
	"sonet/internal/routing"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// Underlay is the substrate a node transmits frames over: the emulated
// multi-ISP Internet in experiments, UDP sockets in deployment.
type Underlay interface {
	// Send transmits marshaled frame bytes to a neighbor over the given
	// underlay path (ISP choice) of the connecting overlay link.
	Send(neighbor wire.NodeID, path uint8, data []byte)
	// PathCount returns how many underlay paths serve the link to a
	// neighbor (§II-A multihoming).
	PathCount(neighbor wire.NodeID) int
}

// Compromise configures Byzantine behaviour for intrusion-tolerance
// experiments (§IV-B): a compromised node keeps its credentials and
// participates in routing but subverts the data plane.
type Compromise struct {
	// DropData blackholes data packets while continuing to participate in
	// control protocols (the stealthy data-plane attacker).
	DropData bool
	// CorruptData flips payload bytes of forwarded data packets; under an
	// authenticated overlay the tampered copies fail signature
	// verification downstream.
	CorruptData bool
	// DelayData defers forwarding of data packets by this much.
	DelayData time.Duration
}

// defaultTTL stamps originated packets lacking one.
const defaultTTL = 32

// Config parameterizes a Node.
type Config struct {
	// ID is the node's overlay identifier (required, nonzero).
	ID wire.NodeID
	// Clock drives all timers (required).
	Clock sim.Clock
	// Underlay transmits frames (required).
	Underlay Underlay
	// Graph is the designed overlay topology (required).
	Graph *topology.Graph
	// Metric scores links for routing; nil selects the loss-penalized
	// expected-latency metric.
	Metric topology.Metric
	// LinkState configures connectivity maintenance.
	LinkState linkstate.Config
	// Reliable configures the hop-by-hop Reliable Data Link.
	Reliable link.ReliableConfig
	// Strikes configures the NM-Strikes real-time protocol. A zero RTT is
	// replaced per link with twice the link's designed latency.
	Strikes link.StrikesConfig
	// SingleStrike configures the single-strike VoIP protocol, with the
	// same per-link RTT defaulting.
	SingleStrike link.StrikesConfig
	// ITSched configures the intrusion-tolerant fair schedulers.
	ITSched itmsg.SchedConfig
	// Keyring enables authentication: frames are MACed per link and
	// intrusion-tolerant data packets are signed and verified.
	Keyring *itmsg.Keyring
	// GroupRefresh is the period of group-state refresh floods.
	GroupRefresh time.Duration
	// Compromised switches the node to Byzantine behaviour.
	Compromised Compromise
	// Membership, when non-nil, enables the dynamic-membership protocol:
	// the node maintains a replicated member directory, gates link-state
	// acceptance on membership, and runs the self-stabilizing
	// detector/corrector sweep. Nil (the default) preserves the static
	// fixed-fleet behavior with zero extra traffic.
	Membership *membership.Config
}

// Stats counts node-level packet handling.
type Stats struct {
	// Originated counts packets injected by local clients.
	Originated uint64
	// Forwarded counts packet transmissions toward neighbors.
	Forwarded uint64
	// DeliveredLocal counts packets handed to the session level.
	DeliveredLocal uint64
	// Duplicates counts redundant copies suppressed by the dedup table.
	Duplicates uint64
	// DroppedTTL counts packets dropped at TTL expiry.
	DroppedTTL uint64
	// DroppedNoRoute counts packets with no forwarding decision.
	DroppedNoRoute uint64
	// DroppedAuth counts packets and frames failing authentication.
	DroppedAuth uint64
	// DroppedUnknownPeer counts frames from, and packets toward, a node
	// the handling shard has no link entry for, and frames that reached a
	// data shard the ownership rule did not name (a hello, or a peer homed
	// elsewhere).
	DroppedUnknownPeer uint64
	// DroppedCrossing counts packets refused by a full shard-crossing ring
	// (transit egress, local delivery, hand-off, control); a refused
	// originated egress is backpressure, not counted here.
	DroppedCrossing uint64
	// DroppedMalformed counts input that failed to decode: a frame the wire
	// codec rejected, or a link-state, group-state or membership payload its
	// manager rejected.
	DroppedMalformed uint64
	// Blackholed counts data packets absorbed by compromised behaviour.
	Blackholed uint64
}

// ControlStats counts what the routing level's floods cost, link state and
// group state side by side (one flood.Stats each): flooded packets accepted
// as news and passed on, flooded packets discarded on their header as
// already seen, packets refused because their origin is not an overlay
// member, and retained packets pushed to a neighbor whose link recovered.
type ControlStats struct {
	FloodedLSAs, FloodedAnnouncements uint64
	StaleLSAs, StaleAnnouncements     uint64
	RefusedLSAs, RefusedAnnouncements uint64
	ResyncLSAs, ResyncAnnouncements   uint64
}

// Node is one overlay node.
type Node struct {
	cfg    Config
	id     wire.NodeID
	clock  sim.Clock
	lsMgr  *linkstate.Manager
	grpMgr *groups.Manager
	memMgr *membership.Manager
	engine *routing.Engine

	deliver   func(*wire.Packet)
	ctlPacket wire.Packet

	// plane is the node's forwarding engines; ctl is its shard 0, the one
	// on this node's executor.
	plane *DataPlane
	ctl   *DataShard

	refreshTimer sim.Timer
}

// New assembles a node. The deliver sink receives packets addressed to
// local clients; the session level supplies it.
func New(cfg Config) (*Node, error) {
	if cfg.ID == 0 {
		return nil, fmt.Errorf("node: zero ID")
	}
	if cfg.Clock == nil || cfg.Underlay == nil || cfg.Graph == nil {
		return nil, fmt.Errorf("node %v: missing clock, underlay, or graph", cfg.ID)
	}
	if !cfg.Graph.HasNode(cfg.ID) {
		return nil, fmt.Errorf("node %v: not in topology", cfg.ID)
	}
	if cfg.GroupRefresh <= 0 {
		cfg.GroupRefresh = 2 * time.Second
	}
	n := &Node{
		cfg:     cfg,
		id:      cfg.ID,
		clock:   cfg.Clock,
		deliver: func(*wire.Packet) {},
	}
	n.refreshTimer = n.clock.NewTimer(n.groupRefresh)
	n.plane = newDataPlane(n)
	n.ctl = n.plane.shards[0]
	view := topology.NewView(cfg.Graph)
	n.lsMgr = linkstate.NewManager(&lsEnv{n: n}, n.id, view, cfg.LinkState)
	n.lsMgr.SetOnSessionReset(n.plane.resetPeer)
	n.lsMgr.SetOnNeighborState(n.handleNeighborState)
	n.grpMgr = groups.NewManager(&grpEnv{n: n}, n.id)
	n.engine = routing.NewEngine(n.id, n.lsMgr, n.grpMgr, cfg.Metric)
	n.registerIncident()
	if cfg.Membership != nil {
		n.memMgr = membership.NewManager(&memEnv{n: n}, n.id, *cfg.Membership)
		n.memMgr.SetView(view)
		n.memMgr.SetOnChange(n.memberChanged)
		n.memMgr.SetOnFinding(n.correctFinding)
		n.memMgr.SetOnReconcile(n.lsMgr.ReconcileAdjacent)
		n.lsMgr.SetMemberCheck(n.memMgr.AllowsOrigin)
		n.grpMgr.SetMemberCheck(n.memMgr.AllowsOrigin)
	}
	return n, nil
}

// DataPlane returns the node's forwarding engines: one shard until
// DataPlane.Grow.
func (n *Node) DataPlane() *DataPlane { return n.plane }

// Start begins connectivity and group-state maintenance.
func (n *Node) Start() {
	n.lsMgr.Start()
	n.refreshTimer.Reset(n.cfg.GroupRefresh)
	if n.memMgr != nil {
		n.memMgr.Start()
	}
	// Data shards need a snapshot before the first reconvergence publishes
	// one.
	n.engine.Publish()
}

// Stop cancels all timers and closes the control shard's link protocol
// instances (DataPlane.Close does the same for the other shards).
func (n *Node) Stop() {
	n.lsMgr.Stop()
	if n.memMgr != nil {
		n.memMgr.Stop()
	}
	n.refreshTimer.Stop()
	n.ctl.close()
}

// handleNeighborState follows an adjacent link's down/up transition, after
// linkstate restarted the link's sessions (DataPlane.resetPeer): a healed
// link carries the group database across, once per recovery — the
// link-state manager pushes its own right after this returns.
func (n *Node) handleNeighborState(peer wire.NodeID, up bool) {
	if up {
		n.grpMgr.Resync(peer)
	}
}

// ID returns the node's overlay identifier.
func (n *Node) ID() wire.NodeID { return n.id }

// Clock returns the node's clock.
func (n *Node) Clock() sim.Clock { return n.clock }

// View returns the node's copy of the shared connectivity view.
func (n *Node) View() *topology.View { return n.lsMgr.View() }

// Engine returns the node's routing engine.
func (n *Node) Engine() *routing.Engine { return n.engine }

// Groups returns the node's group-state manager.
func (n *Node) Groups() *groups.Manager { return n.grpMgr }

// LinkStateManager returns the node's connectivity manager.
func (n *Node) LinkStateManager() *linkstate.Manager { return n.lsMgr }

// Membership returns the node's dynamic-membership manager, nil unless
// Config.Membership enabled the protocol.
func (n *Node) Membership() *membership.Manager { return n.memMgr }

// Leave departs the overlay gracefully: the node's directory record
// advances to a departed epoch and floods, and every adjacent link is
// withdrawn in one full advertisement. The caller then drains sessions
// and calls Stop.
func (n *Node) Leave() {
	if n.memMgr != nil {
		n.memMgr.Leave()
	}
	n.lsMgr.WithdrawAll()
}

// registerIncident gives every incident link of the graph whose neighbor
// has no entry yet its data-plane entry (DataPlane.admit) and its hello
// machinery (linkstate's AddNeighbor, which probes at once on a started
// node), in link order, and reports whether it registered any.
func (n *Node) registerIncident() bool {
	grew := false
	for _, lid := range n.cfg.Graph.Incident(n.id) {
		l, _ := n.cfg.Graph.Link(lid)
		peer, _ := l.Other(n.id)
		if n.ctl.peers.At(peer) != nil {
			continue
		}
		n.plane.admit(peer, lid, l.Latency)
		n.lsMgr.AddNeighbor(peer, lid)
		grew = true
	}
	return grew
}

// forwardingChanged follows every change to the shared view or group
// state: data shards get a fresh snapshot. The engine's caches notice the
// change by the view and group versions.
func (n *Node) forwardingChanged() { n.engine.Publish() }

// LearnLink grows the node's topology with the link a–b of the given
// designed latency; it is how a daemon's configured links, every runtime
// admission and the emulator's runtime join reach the node. The view
// gains the link so SPF can route through it. A link incident to this
// node also admits the other endpoint as a neighbor: its link sessions
// are homed, and hello probing begins with a re-announcement of the
// node's link states (at Start, on a node not yet started). Naming an
// incident link that is already known re-enables that one neighbor after
// an eviction. A remote link's availability stays governed by its
// endpoints' LSA floods. Idempotent; must run on the node's executor.
func (n *Node) LearnLink(a, b wire.NodeID, latency time.Duration) error {
	if _, ok := n.cfg.Graph.LinkBetween(a, b); !ok {
		if _, err := n.cfg.Graph.AddLink(a, b, latency); err != nil {
			return fmt.Errorf("node: %w", err)
		}
	}
	// The view gains state entries, each a version bump, for every link
	// the graph gained, and each new incident link registers its neighbor machinery
	// and begins hello probing.
	if added := n.lsMgr.View().Grow(); n.registerIncident() || added > 0 {
		n.forwardingChanged()
	}
	switch n.id {
	case a:
		n.lsMgr.EnableNeighbor(b)
	case b:
		n.lsMgr.EnableNeighbor(a)
	}
	return nil
}

// EvictNeighbor administratively removes a departed neighbor at runtime:
// its link is downed (the withdrawal floods) and what it flooded is
// forgotten. Must run on the node's executor.
func (n *Node) EvictNeighbor(peer wire.NodeID) {
	n.memberChanged(peer, membership.StatusLeft)
}

// memberChanged follows another node's departure from, or (re)admission to,
// the overlay — a directory transition or an eviction. Either way both flood
// databases forget its numbering, so that a rejoining incarnation's
// restarted sequence space wins at once; a departed node's group memberships
// go too, and as a neighbor its link is administratively downed, where a
// (re)joined neighbor resumes probing.
func (n *Node) memberChanged(id wire.NodeID, st membership.Status) {
	if id == n.id {
		return
	}
	departed := st == membership.StatusLeft
	n.lsMgr.PurgeOrigin(id)
	n.grpMgr.PurgeOrigin(id, departed)
	if n.ctl.peers.At(id) == nil {
		return
	}
	if departed {
		n.lsMgr.DisableNeighbor(id)
	} else {
		n.lsMgr.EnableNeighbor(id)
	}
}

// correctFinding is the topology corrector for detector findings: a stale
// link to a departed neighbor is administratively disabled; a stale
// remote link is marked down through the link-state manager so the
// version bump and view-change notification propagate to routing. Every
// node runs the same rule against converging directories, so the fleet
// repairs to the same topology without coordination.
func (n *Node) correctFinding(f membership.Finding) {
	if f.Kind != membership.FindingStaleLink {
		return
	}
	if f.Node != 0 {
		if n.ctl.peers.At(f.Node) != nil {
			n.lsMgr.DisableNeighbor(f.Node)
			return
		}
	}
	n.lsMgr.ApplyCorrection(f.Link, false)
}

// tableBytes sums the control plane's per-node tables (the shards' peer
// tables are counted by each shard).
func (n *Node) tableBytes() int {
	b := n.lsMgr.TableBytes() + n.grpMgr.TableBytes() + n.cfg.Graph.TableBytes()
	if n.memMgr != nil {
		b += n.memMgr.Directory().TableBytes()
	}
	if n.cfg.Keyring != nil {
		b += n.cfg.Keyring.TableBytes()
	}
	if snap := n.plane.snap.Load(); snap != nil {
		b += snap.NextHop.Bytes()
	}
	return b
}

// Stats returns a snapshot of the control shard's counters — all of a
// one-shard node's; DataPlane.Stats has the other shards'.
func (n *Node) Stats() Stats { return n.ctl.stats }

// ControlStats returns the routing level's flooding account.
func (n *Node) ControlStats() ControlStats {
	ls, gs := n.lsMgr.FloodStats(), n.grpMgr.Stats()
	return ControlStats{
		FloodedLSAs: ls.Flooded, FloodedAnnouncements: gs.Flooded,
		StaleLSAs: ls.Stale, StaleAnnouncements: gs.Stale,
		RefusedLSAs: ls.Refused, RefusedAnnouncements: gs.Refused,
		ResyncLSAs: ls.Resync, ResyncAnnouncements: gs.Resync,
	}
}

// SchedStats returns the node's aggregated fair-scheduler accounting:
// drops by cause, backpressure refusals, and flow-table occupancy across
// every IT discipline instance on every shard. The counters are atomic,
// so the snapshot is safe from any goroutine.
func (n *Node) SchedStats() metrics.SchedSnapshot { return n.plane.SchedSnapshot() }

// SetDeliver installs the session-level delivery sink.
func (n *Node) SetDeliver(fn func(*wire.Packet)) {
	if fn == nil {
		fn = func(*wire.Packet) {}
	}
	n.deliver = fn
}

// LinkStats returns the link-protocol counters of the control shard's
// endpoints on the link to one neighbor.
func (n *Node) LinkStats(neighbor wire.NodeID) map[wire.LinkProtoID]link.Stats {
	pr := n.ctl.peers.At(neighbor)
	if pr == nil {
		return nil
	}
	return pr.linkStats()
}

// linkStats returns the counters of the endpoints this entry holds, by
// service.
func (pr *peer) linkStats() map[wire.LinkProtoID]link.Stats {
	out := make(map[wire.LinkProtoID]link.Stats)
	for id, p := range pr.protos {
		if p != nil {
			out[wire.LinkProtoID(id)] = p.Stats()
		}
	}
	return out
}

// groupRefresh refloods membership periodically.
func (n *Node) groupRefresh() {
	if n.ctl.closed {
		return
	}
	n.grpMgr.Refresh()
	n.refreshTimer.Reset(n.cfg.GroupRefresh)
}

// Originate injects a packet from the session level into the overlay. It
// stamps TTL and origin time, resolves anycast, signs intrusion-tolerant
// traffic, and routes.
func (n *Node) Originate(p *wire.Packet) error {
	if p.TTL == 0 {
		p.TTL = defaultTTL
	}
	p.Src = n.id
	p.Origin = n.clock.Now()
	if p.Flags.Has(wire.FAnycast) {
		target, ok := n.engine.AnycastResolve(p.Group)
		if !ok {
			n.ctl.stats.DroppedNoRoute++
			return fmt.Errorf("node %v: anycast group %v has no reachable members", n.id, p.Group)
		}
		p.Dst = target
	}
	if n.requiresSignature(p) {
		if err := n.cfg.Keyring.SignPacket(p); err != nil {
			return fmt.Errorf("node %v: %w", n.id, err)
		}
	}
	n.ctl.stats.Originated++
	if n.ctl.route(p, routing.NoLink) {
		// Every egress discipline refused the packet and nothing was
		// delivered locally: surface the typed backpressure signal so the
		// session can slow the source instead of losing traffic silently.
		return fmt.Errorf("node %v: originate: %w", n.id, link.ErrBackpressure)
	}
	return nil
}

// Resend reinjects a previously originated packet for end-to-end
// recovery, preserving its original origin timestamp so measured latency
// reflects the full recovery delay. A recovery copy differs from what was
// signed (its retransmission mark, its route), so intrusion-tolerant
// traffic is signed again.
func (n *Node) Resend(p *wire.Packet) error {
	if p.Src != n.id {
		return fmt.Errorf("node %v: resend of foreign packet from %v", n.id, p.Src)
	}
	p.TTL = defaultTTL
	if n.requiresSignature(p) {
		if err := n.cfg.Keyring.SignPacket(p); err != nil {
			return fmt.Errorf("node %v: %w", n.id, err)
		}
	}
	n.ctl.route(p, routing.NoLink)
	return nil
}

// requiresSignature reports whether the packet must carry a source
// signature: intrusion-tolerant link protocols under an authenticated
// overlay.
func (n *Node) requiresSignature(p *wire.Packet) bool {
	if n.cfg.Keyring == nil || p.Type != wire.PTData {
		return false
	}
	return p.LinkProto == wire.LPITPriority || p.LinkProto == wire.LPITReliable
}

// HandleUnderlay processes raw frame bytes arriving from a neighbor on
// the node's executor, i.e. on shard 0. The data buffer is borrowed for
// the duration of the call.
func (n *Node) HandleUnderlay(from wire.NodeID, data []byte) {
	n.ctl.handleUnderlay(from, data)
}

// handleControl absorbs a control payload a link protocol delivered, from
// whichever shard's endpoint it surfaced on.
func (n *Node) handleControl(from wire.NodeID, p *wire.Packet) {
	var err error
	switch p.Type {
	case wire.PTLinkState:
		err = n.lsMgr.HandleLSA(from, p)
	case wire.PTGroupState:
		err = n.grpMgr.HandleAnnouncement(from, p)
	case wire.PTMembership:
		if n.memMgr != nil {
			err = n.memMgr.HandlePacket(from, p)
		}
	}
	if err != nil {
		// The managers fail on malformed payloads only.
		n.ctl.stats.DroppedMalformed++
	}
}

// lsEnv adapts the node to linkstate.Env.
type lsEnv struct{ n *Node }

func (e *lsEnv) Clock() sim.Clock { return e.n.clock }

func (e *lsEnv) SendControl(neighbor wire.NodeID, f *wire.Frame) {
	if pr := e.n.ctl.peers.At(neighbor); pr != nil {
		e.n.ctl.transmitFrame(pr, f)
	}
}

func (e *lsEnv) FloodLSA(payload []byte, except wire.NodeID) {
	e.n.floodControl(wire.PTLinkState, payload, except)
}

func (e *lsEnv) SendLSA(neighbor wire.NodeID, payload []byte) {
	e.n.sendControl(wire.PTLinkState, neighbor, payload)
}

func (e *lsEnv) PathCount(neighbor wire.NodeID) int {
	return e.n.cfg.Underlay.PathCount(neighbor)
}

func (e *lsEnv) SetPath(neighbor wire.NodeID, path uint8) {
	if pr := e.n.ctl.peers.At(neighbor); pr != nil {
		pr.path.Store(uint32(path))
	}
}

func (e *lsEnv) ViewChanged() { e.n.forwardingChanged() }

// memEnv adapts the node to membership.Env. Flood and Send hand payloads
// to the best-effort link protocol, which marshals synchronously, so the
// manager's scratch buffers can be reused immediately.
type memEnv struct{ n *Node }

func (e *memEnv) Clock() sim.Clock { return e.n.clock }

func (e *memEnv) Flood(payload []byte, except wire.NodeID) {
	e.n.floodControl(wire.PTMembership, payload, except)
}

func (e *memEnv) Send(to wire.NodeID, payload []byte) {
	e.n.sendControl(wire.PTMembership, to, payload)
}

func (e *memEnv) Neighbors() []wire.NodeID { return e.n.lsMgr.Neighbors() }

// grpEnv adapts the node to groups.Env.
type grpEnv struct{ n *Node }

func (e *grpEnv) FloodGroupState(payload []byte, except wire.NodeID) {
	e.n.floodControl(wire.PTGroupState, payload, except)
}

func (e *grpEnv) SendGroupState(neighbor wire.NodeID, payload []byte) {
	e.n.sendControl(wire.PTGroupState, neighbor, payload)
}

func (e *grpEnv) GroupsChanged() { e.n.forwardingChanged() }

// controlPacket wraps a control payload in the node's one control packet
// for the best-effort link protocol, which borrows it and marshals
// synchronously.
func (n *Node) controlPacket(t wire.PacketType, payload []byte) *wire.Packet {
	n.ctlPacket = wire.Packet{Type: t, Route: wire.RouteFlood, TTL: defaultTTL, Src: n.id, Payload: payload}
	return &n.ctlPacket
}

// sendControl sends one control packet to a single neighbor.
func (n *Node) sendControl(t wire.PacketType, neighbor wire.NodeID, payload []byte) {
	if pr := n.ctl.peers.At(neighbor); pr != nil {
		n.ctl.protoFor(pr, wire.LPBestEffort).Send(n.controlPacket(t, payload))
	}
}

// floodControl sends one control packet to every neighbor except one; a
// single packet value serves the whole fan-out.
func (n *Node) floodControl(t wire.PacketType, payload []byte, except wire.NodeID) {
	p := n.controlPacket(t, payload)
	for _, peer := range n.lsMgr.Neighbors() {
		if peer != except {
			n.ctl.protoFor(n.ctl.peers.At(peer), wire.LPBestEffort).Send(p)
		}
	}
}
