// Package core assembles complete structured overlay networks over the
// emulated multi-ISP underlay: the paper's primary contribution as a
// running system (Fig. 1 resilient network architecture + Fig. 2 node
// software architecture), driven deterministically in virtual time.
//
// A typical experiment builds sites, ISP fiber graphs, overlay nodes, and
// multihomed overlay links; starts the overlay; connects clients through
// each node's session manager; and injects failures while measuring
// delivery.
package core

import (
	"fmt"
	"time"

	"sonet/internal/netemu"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// Overlay is a structured overlay network running over an emulated
// underlay in deterministic virtual time.
type Overlay struct {
	// Sched is the discrete-event scheduler driving the world.
	Sched *sim.Scheduler
	// Net is the emulated underlay.
	Net *netemu.Network
	// Graph is the designed overlay topology.
	Graph *topology.Graph

	nodeTemplate func(*node.Config)
	nodes        map[wire.NodeID]*node.Node
	sessions     map[wire.NodeID]*session.Manager
	sites        map[wire.NodeID]netemu.SiteID
	// linkISPs lists each link's providers, indexed by LinkID: IDs are
	// dense and never reused, so the per-datagram lookup is a slice read.
	linkISPs   [][]netemu.ISPID
	pendingCfg map[wire.NodeID]func(*node.Config)
	started    bool
}

// New returns an empty overlay world with the given determinism seed.
func New(seed uint64, cfg netemu.Config) *Overlay {
	sched := sim.NewScheduler(seed)
	return NewOnNetwork(sched, netemu.New(sched, cfg))
}

// NewOnNetwork returns an overlay sharing an existing scheduler and
// underlay. Several overlays can run in parallel over the same emulated
// Internet (§II-B: "multiple overlays can even be run in parallel, with
// each overlay potentially using a different variant of the overlay
// software"), provided their node IDs are disjoint — overlay nodes are
// addressed by ID on the shared underlay.
func NewOnNetwork(sched *sim.Scheduler, net *netemu.Network) *Overlay {
	return &Overlay{
		Sched:      sched,
		Net:        net,
		Graph:      topology.NewGraph(),
		nodes:      make(map[wire.NodeID]*node.Node),
		sessions:   make(map[wire.NodeID]*session.Manager),
		sites:      make(map[wire.NodeID]netemu.SiteID),
		pendingCfg: make(map[wire.NodeID]func(*node.Config)),
	}
}

// SetNodeTemplate installs a configuration hook applied to every node
// created afterwards (protocol defaults, keyrings, …).
func (o *Overlay) SetNodeTemplate(fn func(*node.Config)) { o.nodeTemplate = fn }

// AddSite registers a data center.
func (o *Overlay) AddSite(name string) netemu.SiteID { return o.Net.AddSite(name) }

// AddISP registers a provider backbone.
func (o *Overlay) AddISP(name string) netemu.ISPID { return o.Net.AddISP(name) }

// AddFiber lays a fiber span within one provider's backbone.
func (o *Overlay) AddFiber(isp netemu.ISPID, a, b netemu.SiteID, latency, jitter time.Duration, loss netemu.LossModel) (netemu.FiberID, error) {
	return o.Net.AddFiber(isp, a, b, latency, jitter, loss)
}

// AddNode places an overlay node in a site.
func (o *Overlay) AddNode(id wire.NodeID, at netemu.SiteID) {
	o.AddNodeWithConfig(id, at, nil)
}

// AddNodeWithConfig places an overlay node in a site with a per-node
// configuration hook (compromise behaviour, protocol overrides).
func (o *Overlay) AddNodeWithConfig(id wire.NodeID, at netemu.SiteID, mutate func(*node.Config)) {
	o.Graph.AddNode(id)
	o.sites[id] = at
	if mutate != nil {
		o.pendingCfg[id] = mutate
	}
}

// AddLink creates an overlay link between two nodes with the given
// designed latency, served by the listed providers in failover order
// (§II-A: each overlay link can use any combination of the available
// providers).
func (o *Overlay) AddLink(a, b wire.NodeID, latency time.Duration, isps ...netemu.ISPID) (wire.LinkID, error) {
	if len(isps) == 0 {
		return 0, fmt.Errorf("core: link %v-%v needs at least one ISP", a, b)
	}
	id, err := o.Graph.AddLink(a, b, latency)
	if err != nil {
		return 0, err
	}
	if grow := int(id) + 1 - len(o.linkISPs); grow > 0 {
		o.linkISPs = append(o.linkISPs, make([][]netemu.ISPID, grow)...)
	}
	o.linkISPs[id] = append([]netemu.ISPID(nil), isps...)
	return id, nil
}

// Start instantiates and starts every overlay node. The topology is
// frozen afterwards.
func (o *Overlay) Start() error {
	if o.started {
		return fmt.Errorf("core: already started")
	}
	o.started = true
	for _, id := range o.Graph.Nodes() {
		if err := o.buildNode(id); err != nil {
			return err
		}
	}
	for _, id := range o.Graph.Nodes() {
		o.nodes[id].Start()
	}
	return nil
}

// buildNode instantiates one node plus its session manager and attaches it
// to the underlay (without starting it).
func (o *Overlay) buildNode(id wire.NodeID) error {
	cfg := node.Config{
		ID:       id,
		Clock:    o.Sched,
		Underlay: &underlayPort{o: o, self: id},
		Graph:    o.Graph,
	}
	if o.nodeTemplate != nil {
		o.nodeTemplate(&cfg)
	}
	if mutate, ok := o.pendingCfg[id]; ok {
		mutate(&cfg)
	}
	n, err := node.New(cfg)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	o.nodes[id] = n
	o.sessions[id] = session.NewManager(n)
	site, ok := o.sites[id]
	if !ok {
		return fmt.Errorf("core: node %v has no site", id)
	}
	if err := o.Net.AttachNode(id, site, n.HandleUnderlay); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// JoinLink declares one overlay link a runtime joiner establishes to an
// existing member.
type JoinLink struct {
	// To is the existing member at the far end.
	To wire.NodeID
	// Latency is the designed one-way latency of the link.
	Latency time.Duration
	// ISPs lists the providers serving the link in failover order.
	ISPs []netemu.ISPID
}

// Join admits a new node into the running overlay: the designed topology
// gains the node and its links, every running node absorbs the growth
// (views grow with journaled entries; nodes incident to new links begin
// hello probing and re-announce their link states), and the joiner is
// built, attached to the underlay at its site, and started. When dynamic
// membership is enabled and contact is nonzero, the joiner then runs the
// in-band admission handshake through the contact node — which must be at
// the far end of one of its links — retrying until admitted.
//
// The site and the fibers serving the links' ISPs must already exist; the
// configuration hook (optional) adjusts the joiner's node config the same
// way AddNodeWithConfig would have.
func (o *Overlay) Join(id wire.NodeID, at netemu.SiteID, contact wire.NodeID, links []JoinLink, mutate func(*node.Config)) error {
	if !o.started {
		return fmt.Errorf("core: not started")
	}
	if _, ok := o.nodes[id]; ok {
		return fmt.Errorf("core: node %v already running", id)
	}
	if len(links) == 0 {
		return fmt.Errorf("core: joining node %v needs at least one link", id)
	}
	o.Graph.AddNode(id)
	o.sites[id] = at
	if mutate != nil {
		o.pendingCfg[id] = mutate
	}
	for _, jl := range links {
		if _, err := o.AddLink(id, jl.To, jl.Latency, jl.ISPs...); err != nil {
			return err
		}
	}
	// Each running node learns the new links, as a daemon's Apply teaches
	// its node, in deterministic (insertion) order — the incident peers
	// flood re-announcements, so ordering by map iteration would break
	// seeded reproducibility.
	for _, nid := range o.Graph.Nodes() {
		if n, ok := o.nodes[nid]; ok {
			for _, jl := range links {
				if err := n.LearnLink(id, jl.To, jl.Latency); err != nil {
					return err
				}
			}
		}
	}
	if err := o.buildNode(id); err != nil {
		return err
	}
	o.nodes[id].Start()
	if m := o.nodes[id].Membership(); m != nil && contact != 0 {
		m.Join(contact)
	}
	return nil
}

// Leave departs a running node gracefully: it announces its departure
// (directory record + full LSA withdrawal), then stops and closes its
// session manager. The announcement floods are already in flight when the
// node stops, so survivors converge without it. The node's slot remains:
// RestartNode (plus a membership re-join) brings it back.
func (o *Overlay) Leave(id wire.NodeID) error {
	n, ok := o.nodes[id]
	if !ok {
		return fmt.Errorf("core: no node %v", id)
	}
	n.Leave()
	n.Stop()
	if s := o.sessions[id]; s != nil {
		s.Close()
	}
	return nil
}

// RestartNode crash-restarts a node with total state loss: the old node
// and its session manager are stopped and discarded, and a brand-new
// incarnation (fresh link-state database, sequence counters, group
// membership, flow state) is built and started in its place. Node and
// Session return the new incarnation afterwards; clients of the old one
// are closed and must reconnect.
func (o *Overlay) RestartNode(id wire.NodeID) error {
	if !o.started {
		return fmt.Errorf("core: not started")
	}
	old, ok := o.nodes[id]
	if !ok {
		return fmt.Errorf("core: no node %v", id)
	}
	old.Stop()
	if s := o.sessions[id]; s != nil {
		s.Close()
	}
	if err := o.buildNode(id); err != nil {
		return err
	}
	o.nodes[id].Start()
	return nil
}

// SiteOf returns the site a node was placed in.
func (o *Overlay) SiteOf(id wire.NodeID) (netemu.SiteID, bool) {
	site, ok := o.sites[id]
	return site, ok
}

// Stop quiesces every node.
func (o *Overlay) Stop() {
	for _, n := range o.nodes {
		n.Stop()
	}
}

// Node returns an overlay node by ID.
func (o *Overlay) Node(id wire.NodeID) *node.Node { return o.nodes[id] }

// Session returns a node's session manager.
func (o *Overlay) Session(id wire.NodeID) *session.Manager { return o.sessions[id] }

// RunFor advances virtual time.
func (o *Overlay) RunFor(d time.Duration) { o.Sched.RunFor(d) }

// Now returns the current virtual time.
func (o *Overlay) Now() time.Duration { return o.Sched.Now() }

// Settle runs the overlay long enough for hellos, link-state floods, and
// group floods to converge (a convenience for tests and experiments).
func (o *Overlay) Settle() { o.RunFor(time.Second) }

// underlayPort adapts the emulated network to node.Underlay for one node,
// translating (neighbor, path) to the link's ISP choice.
type underlayPort struct {
	o    *Overlay
	self wire.NodeID
}

func (p *underlayPort) Send(neighbor wire.NodeID, path uint8, data []byte) {
	l, ok := p.o.Graph.LinkBetween(p.self, neighbor)
	if !ok {
		return
	}
	isps := p.o.ispsOf(l.ID)
	if len(isps) == 0 {
		return
	}
	isp := isps[int(path)%len(isps)]
	p.o.Net.Send(p.self, neighbor, isp, data)
}

func (p *underlayPort) PathCount(neighbor wire.NodeID) int {
	l, ok := p.o.Graph.LinkBetween(p.self, neighbor)
	if !ok {
		return 1
	}
	if n := len(p.o.ispsOf(l.ID)); n > 0 {
		return n
	}
	return 1
}

// ispsOf returns the providers of link id; none for a link added to the
// graph without going through AddLink.
func (o *Overlay) ispsOf(id wire.LinkID) []netemu.ISPID {
	if int(id) < len(o.linkISPs) {
		return o.linkISPs[id]
	}
	return nil
}
