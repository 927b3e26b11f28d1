// Package session implements the session interface of the overlay node
// software architecture (Fig. 2): client connections on virtual ports,
// per-flow service selection (routing service × link protocol × delivery
// semantics), flow origination, and destination-side delivery — including
// the in-order hold-back buffering and deadline-based late discard that
// the paper assigns to the final destination (§III-A, §IV-A).
package session

import (
	"fmt"
	"slices"
	"time"

	"sonet/internal/link"
	"sonet/internal/metrics"
	"sonet/internal/node"
	"sonet/internal/seqno"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// FlowSpec selects the overlay services for one application flow (§II-C:
// a flow consists of a source, one or more destinations, and the overlay
// services selected for that flow).
type FlowSpec struct {
	// DstNode and DstPort address a unicast destination client.
	DstNode wire.NodeID
	// DstPort is the destination virtual port (also used for group
	// flows: members listen on this port).
	DstPort wire.Port
	// Group addresses a multicast or anycast group instead of a node.
	Group wire.GroupID
	// Anycast delivers to exactly one member of Group.
	Anycast bool
	// LinkProto selects the link-level protocol on every hop; zero means
	// Best Effort.
	LinkProto wire.LinkProtoID
	// DisjointK, when positive, routes over K node-disjoint paths via the
	// source-based bitmask mechanism (§IV-B).
	DisjointK int
	// Dissem, when set, routes over a dissemination graph tailored to the
	// given problem area (§V-A). Takes precedence over DisjointK.
	Dissem topology.ProblemArea
	// Flood routes by constrained flooding over the whole topology.
	Flood bool
	// Ordered asks the destination to deliver in sequence order. An
	// ordered group or anycast flow needs a Deadline: nothing else ever
	// releases what its destinations hold back.
	Ordered bool
	// Deadline is the one-way latency budget; late packets are discarded
	// at the destination and ordered flows flush their hold-back buffer
	// when it expires.
	Deadline time.Duration
	// Priority orders messages within intrusion-tolerant priority flows.
	Priority uint8
}

// Delivery is one packet handed to a client.
type Delivery struct {
	// From identifies the source client.
	From wire.NodeID
	// SrcPort is the source client's virtual port.
	SrcPort wire.Port
	// Seq is the flow sequence number.
	Seq uint32
	// Group is set for multicast deliveries.
	Group wire.GroupID
	// Latency is the one-way delay from origination.
	Latency time.Duration
	// Retransmitted marks packets whose delivered copy was recovered by a
	// link-level retransmission somewhere along the path.
	Retransmitted bool
	// Payload is the application data. An OnDeliver callback borrows it
	// for the call — it aliases the receive buffer — and copies what it
	// keeps; deliveries queued for Deliveries() own theirs.
	Payload []byte
}

// Manager is the session level of one overlay node.
type Manager struct {
	// NackMaxTries bounds the NACKs a reliable flow's destination sends
	// for one gap before it flushes past the gap.
	NackMaxTries int
	// HistoryLimit bounds per-flow sent-packet history retained for
	// end-to-end recovery.
	HistoryLimit int

	n             *node.Node
	clock         sim.Clock
	clients       map[wire.Port]*Client
	flowPorts     map[wire.Port]*Flow
	nextEphemeral wire.Port
	// noClient counts packets for ports nobody listens on.
	noClient uint64
}

// NewManager attaches a session manager to a node, installing itself as
// the node's delivery sink.
func NewManager(n *node.Node) *Manager {
	m := &Manager{
		NackMaxTries:  100,
		HistoryLimit:  8192,
		n:             n,
		clock:         n.Clock(),
		clients:       make(map[wire.Port]*Client),
		flowPorts:     make(map[wire.Port]*Flow),
		nextEphemeral: firstEphemeral,
	}
	n.SetDeliver(m.handleDelivery)
	return m
}

// Node returns the underlying overlay node.
func (m *Manager) Node() *node.Node { return m.n }

// Connect registers a client on a virtual port. Port zero allocates an
// ephemeral port, and fails once clients and flows hold them all. Clients
// are identified overlay-wide by the node's ID plus this port, mimicking
// IP address + port addressing (§II-B).
func (m *Manager) Connect(port wire.Port) (*Client, error) {
	if port == 0 {
		var err error
		if port, err = m.allocEphemeral(); err != nil {
			return nil, err
		}
	}
	if m.portInUse(port) {
		return nil, fmt.Errorf("session: port %d in use on node %v", port, m.n.ID())
	}
	c := &Client{
		mgr:     m,
		port:    port,
		reorder: make(map[flowID]*reorderState),
	}
	m.clients[port] = c
	return c, nil
}

// portInUse reports whether a virtual port is taken by a client or flow.
func (m *Manager) portInUse(port wire.Port) bool {
	if _, ok := m.clients[port]; ok {
		return true
	}
	_, ok := m.flowPorts[port]
	return ok
}

// firstEphemeral is the bottom of the ephemeral range; it runs to the top
// of the port space.
const firstEphemeral wire.Port = 49152

// allocEphemeral returns the next free ephemeral virtual port, or an error
// when every one of them is taken.
func (m *Manager) allocEphemeral() (wire.Port, error) {
	for range 1<<16 - int(firstEphemeral) {
		port := m.nextEphemeral
		if m.nextEphemeral++; m.nextEphemeral == 0 {
			m.nextEphemeral = firstEphemeral
		}
		if !m.portInUse(port) {
			return port, nil
		}
	}
	return 0, fmt.Errorf("session: every ephemeral port is in use on node %v", m.n.ID())
}

// NoClientDrops returns packets that arrived for ports without clients.
func (m *Manager) NoClientDrops() uint64 { return m.noClient }

// Close closes every client, releasing their ports and cancelling all
// pending timers. A crash-restarting node must Close its manager so no
// reorder, NACK, or tail-flush timer of the dead incarnation fires into
// the reborn one.
func (m *Manager) Close() {
	for _, c := range m.clients {
		c.Close()
	}
}

// handleDelivery dispatches a packet delivered by the node to the client
// on its destination port. The packet is borrowed for the call.
func (m *Manager) handleDelivery(p *wire.Packet) {
	if p.Type == wire.PTSessionCtl {
		m.handleNack(p)
		return
	}
	c, ok := m.clients[p.DstPort]
	if !ok {
		m.noClient++
		return
	}
	c.receive(p)
}

// flowID keys destination-side per-flow state.
type flowID struct {
	src     wire.NodeID
	srcPort wire.Port
}

// Client is one application endpoint attached to an overlay node.
type Client struct {
	mgr  *Manager
	port wire.Port
	// onDeliver, when set, receives deliveries synchronously; otherwise
	// they are queued for Deliveries().
	onDeliver func(Delivery)
	queue     []Delivery
	closed    bool

	flows   []*Flow
	reorder map[flowID]*reorderState
	stats   metrics.FlowStats
}

// reorderState is the destination hold-back buffer for one ordered flow.
type reorderState struct {
	c    *Client
	id   flowID
	hold *seqno.HoldBack

	// gaps is a reliable flow's recovery schedule (reliable.go), nil for a
	// deadline flow. A flow's packets all carry its spec's deadline, so a
	// flow has one or the other.
	gaps *seqno.Queue
	// timer is a deadline flow's flush, made on first need and armed for
	// due — the earliest deadline held — while anything is held.
	timer sim.Timer
	armed bool
	due   time.Duration
}

// Port returns the client's virtual port.
func (c *Client) Port() wire.Port { return c.port }

// OnDeliver installs a synchronous delivery callback; once set, the
// internal queue is bypassed.
func (c *Client) OnDeliver(fn func(Delivery)) { c.onDeliver = fn }

// Deliveries drains and returns queued deliveries.
func (c *Client) Deliveries() []Delivery {
	out := c.queue
	c.queue = nil
	return out
}

// Stats returns the client's receive-side accounting.
func (c *Client) Stats() *metrics.FlowStats { return &c.stats }

// Join subscribes the client's node to a multicast group.
func (c *Client) Join(g wire.GroupID) { c.mgr.n.Groups().Join(g) }

// Leave unsubscribes from a multicast group.
func (c *Client) Leave(g wire.GroupID) { c.mgr.n.Groups().Leave(g) }

// Close releases the client's port, cancels pending reorder timers and
// releases the packets they held.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, st := range c.reorder {
		if st.timer != nil {
			st.timer.Stop()
		}
		if st.gaps != nil {
			st.gaps.Close()
		}
		st.hold.Close()
	}
	// Flow.Close takes a flow off c.flows, so take the list first.
	flows := c.flows
	c.flows = nil
	for _, f := range flows {
		f.Close()
	}
	delete(c.mgr.clients, c.port)
}

// OpenFlow creates a flow with the given service selection.
func (c *Client) OpenFlow(spec FlowSpec) (*Flow, error) {
	if spec.Group == 0 && spec.DstNode == 0 {
		return nil, fmt.Errorf("session: flow needs a destination node or group")
	}
	if spec.Group == 0 && spec.Anycast {
		return nil, fmt.Errorf("session: anycast flow needs a group")
	}
	if spec.LinkProto > wire.LPITReliable {
		return nil, fmt.Errorf("session: unknown link protocol %v", spec.LinkProto)
	}
	if spec.Deadline < 0 || spec.DisjointK < 0 {
		// A negative deadline neither flushes a gap nor leaves the flow to
		// end-to-end recovery, so an ordered flow's first loss would hold
		// it for good.
		return nil, fmt.Errorf("session: negative deadline %v or disjoint path count %d", spec.Deadline, spec.DisjointK)
	}
	if spec.Group != 0 && spec.Ordered && spec.Deadline == 0 {
		// Group flows keep no history to recover from, so only a deadline
		// flush could release a gap their destinations hold back.
		return nil, fmt.Errorf("session: ordered group flow needs a deadline")
	}
	port, err := c.mgr.allocEphemeral()
	if err != nil {
		return nil, err
	}
	f := &Flow{client: c, spec: spec, srcPort: port}
	if wantsE2ERecovery(spec) {
		f.tailTimer = c.mgr.clock.NewTimer(f.tailFlush)
	}
	c.mgr.flowPorts[f.srcPort] = f
	c.flows = append(c.flows, f)
	return f, nil
}

// receive applies the flow's delivery semantics. It borrows p, which may
// alias a receive buffer: whatever outlives the call (a packet held back
// for ordering, a queued delivery) is captured.
func (c *Client) receive(p *wire.Packet) {
	if p.Flags.Has(wire.FOrdered) {
		c.receiveOrdered(p)
		return
	}
	lat := c.mgr.clock.Now() - p.Origin
	if p.Deadline > 0 && lat > p.Deadline {
		c.stats.Late++
		return
	}
	c.deliverUp(p, lat)
}

// receiveOrdered implements the destination hold-back buffer: deliver in
// sequence, flushing past gaps when a held packet's deadline expires, and
// discarding packets that arrive after later packets were delivered
// (§IV-A).
func (c *Client) receiveOrdered(p *wire.Packet) {
	id := flowID{src: p.Src, srcPort: p.SrcPort}
	st, ok := c.reorder[id]
	if !ok {
		st = c.newReorderState(id, packetWantsE2E(p))
		c.reorder[id] = st
	}
	// Half the sequence space ahead of next is behind it: serial order
	// leaves that one distance undecided, and taking it as ahead would put
	// the next delivery before the last.
	if !seqno.LE(st.hold.Next(), p.FlowSeq) {
		if p.Flags.Has(wire.FRetrans) {
			// A redundant tail or recovery copy of something already
			// delivered.
			c.stats.Duplicates++
		} else {
			// Recovered too late: later packets were already delivered.
			c.stats.Late++
		}
		return
	}
	held, ok := st.hold.Arrive(p.FlowSeq, p, st.deliver)
	if !ok {
		c.stats.Duplicates++
		return
	}
	if held && p.Deadline > 0 {
		st.flushBy(p.Origin + p.Deadline)
	}
	st.hold.Release(st.hold.Next()-1, st.deliver)
	switch {
	case st.gaps != nil:
		// Reliable flows recover the gaps this arrival reveals end to end.
		st.gaps.Reveal(p.FlowSeq)
	case st.armed && st.hold.Len() == 0:
		// Nothing is held, so there is nothing to flush.
		st.timer.Stop()
		st.armed = false
	}
}

// deliver hands a packet the hold-back buffer releases to the client.
func (st *reorderState) deliver(p *wire.Packet) {
	st.c.deliverUp(p, st.c.mgr.clock.Now()-p.Origin)
}

// flushBy arms a deadline flow's timer for deadline, unless it is armed
// for one no later.
func (st *reorderState) flushBy(deadline time.Duration) {
	if st.armed && st.due <= deadline {
		return
	}
	if st.timer == nil {
		st.timer = st.c.mgr.clock.NewTimer(st.flushDue)
	}
	st.armed, st.due = true, deadline
	st.timer.ResetAt(deadline)
}

// flushDue is a deadline flow's timer. It flushes to the highest held
// sequence whose deadline has passed — the union of the flushes each
// held packet's own deadline would make — and re-arms, with one Reset,
// for the earliest deadline still held.
func (st *reorderState) flushDue() {
	now := st.c.mgr.clock.Now()
	to := st.hold.Next() - 1
	for i := range st.hold.Len() {
		if seq, p := st.hold.At(i); p.Deadline > 0 && p.Origin+p.Deadline <= now {
			to = seq
		}
	}
	st.hold.Release(to, st.deliver)
	st.armed = false
	for i := range st.hold.Len() {
		if _, p := st.hold.At(i); p.Deadline > 0 && (!st.armed || p.Origin+p.Deadline < st.due) {
			st.armed, st.due = true, p.Origin+p.Deadline
		}
	}
	if st.armed {
		st.timer.ResetAt(st.due)
	}
}

func (c *Client) deliverUp(p *wire.Packet, lat time.Duration) {
	if c.closed {
		return
	}
	c.stats.Received++
	c.stats.Latency.Add(lat)
	d := Delivery{
		From:          p.Src,
		SrcPort:       p.SrcPort,
		Seq:           p.FlowSeq,
		Group:         p.Group,
		Latency:       lat,
		Retransmitted: p.Flags.Has(wire.FRetrans),
		Payload:       p.Payload,
	}
	if c.onDeliver != nil {
		c.onDeliver(d)
		return
	}
	d.Payload = append([]byte(nil), p.Payload...)
	c.queue = append(c.queue, d)
}

// Flow is one application data flow with fixed service selection.
type Flow struct {
	client *Client
	spec   FlowSpec
	// srcPort uniquely identifies this flow overlay-wide (Src node +
	// SrcPort), keeping dedup keys and destination reorder state disjoint
	// across flows.
	srcPort wire.Port
	seq     uint32
	// mask caching across sends.
	mask        wire.Bitmask
	maskVersion uint64
	maskValid   bool
	// out is the packet Send builds, so an originated packet is no heap
	// object of its own; routing borrows it for the call. sending counts
	// the sends routing on this flow: one a local OnDeliver callback makes
	// while the outer send still routes builds a packet of its own, which
	// leaves the outer one intact.
	out     wire.Packet
	sending int
	// history retains sent packets, by value, for end-to-end recovery on
	// reliable flows.
	history   *link.SeqRing[wire.Packet]
	tailTimer sim.Timer
	tailTries int
	closed    bool
	stats     metrics.FlowStats
}

// Spec returns the flow's service selection.
func (f *Flow) Spec() FlowSpec { return f.spec }

// Close releases the flow's source port, retained history, and timers.
// The client stays usable; sends on a closed flow fail.
func (f *Flow) Close() {
	if f.closed {
		return
	}
	f.closed = true
	if f.tailTimer != nil {
		f.tailTimer.Stop()
	}
	f.history = nil
	delete(f.client.mgr.flowPorts, f.srcPort)
	if i := slices.Index(f.client.flows, f); i >= 0 {
		f.client.flows = slices.Delete(f.client.flows, i, i+1)
	}
}

// Stats returns the flow's send-side accounting.
func (f *Flow) Stats() *metrics.FlowStats { return &f.stats }

// ErrBackpressure is returned by Send when every egress scheduler queue
// refused the packet (the flow's fair-share buffer at the first hop is
// saturated). The message was not queued anywhere: the application should
// back off and retry rather than treat the flow as failed.
var ErrBackpressure = link.ErrBackpressure

// Send transmits one application message on the flow. A send refused by
// first-hop admission control returns an error satisfying
// errors.Is(err, ErrBackpressure).
//
// A send that fails leaves no copy anywhere, so it neither counts as sent
// nor uses up a flow sequence: the next send takes the same number, and
// an ordered destination never waits on a message that was not sent. On
// flood, source-routed and multicast routes the source's duplicate table
// records a number only once a copy has left, so the retry goes out too.
//
// Send takes ownership of payload: the originated packet aliases it, and
// a reliable flow keeps a copy of that packet, payload aliased, in its
// recovery history long after Send returns. The caller must not modify
// or reuse the slice afterwards; a caller that wants its buffer back
// passes a copy (the daemon's client edge hands over the private copy it
// made off the socket).
func (f *Flow) Send(payload []byte) error {
	if f.client.closed {
		return fmt.Errorf("session: send on closed client")
	}
	if f.closed {
		return fmt.Errorf("session: send on closed flow")
	}
	p := &f.out
	if f.sending > 0 {
		p = new(wire.Packet)
	}
	*p = wire.Packet{
		Type:      wire.PTData,
		Route:     wire.RouteLinkState,
		LinkProto: f.spec.LinkProto,
		Priority:  f.spec.Priority,
		SrcPort:   f.srcPort,
		Dst:       f.spec.DstNode,
		DstPort:   f.spec.DstPort,
		Group:     f.spec.Group,
		Deadline:  f.spec.Deadline,
		Payload:   payload,
	}
	if p.LinkProto == 0 {
		p.LinkProto = wire.LPBestEffort
	}
	if f.spec.Ordered {
		p.Flags |= wire.FOrdered
	}
	switch {
	case f.spec.Flood:
		p.Route = wire.RouteFlood
	case f.spec.Dissem != 0 || f.spec.DisjointK > 0:
		mask, err := f.sourceMask()
		if err != nil {
			return err
		}
		p.Route = wire.RouteSourceMask
		p.Mask = mask
	case f.spec.Group != 0 && f.spec.Anycast:
		p.Flags |= wire.FAnycast
	case f.spec.Group != 0:
		p.Route = wire.RouteMulticast
		p.Dst = 0
	}
	// The number is taken for the routing call, so a send a local OnDeliver
	// callback makes meanwhile takes the next one. Only a local delivery
	// calls back, and a send that delivered locally is never refused, so a
	// refused send hands its number back with no later one taken.
	f.seq++
	p.FlowSeq = f.seq
	f.sending++
	err := f.client.mgr.n.Originate(p)
	f.sending--
	if err != nil {
		f.seq--
		return err
	}
	f.stats.Sent++
	if wantsE2ERecovery(f.spec) {
		f.remember(p)
		f.armTailFlush()
	}
	return nil
}

// sourceMask computes (and caches per view version) the flow's
// source-route bitmask: a dissemination graph or K node-disjoint paths.
func (f *Flow) sourceMask() (wire.Bitmask, error) {
	n := f.client.mgr.n
	view := n.View()
	ver := view.Version()
	if f.maskValid && f.maskVersion == ver {
		return f.mask, nil
	}
	var mask wire.Bitmask
	var err error
	if f.spec.Dissem != 0 {
		mask, err = topology.DissemGraph(view, n.ID(), f.spec.DstNode, f.spec.Dissem, topology.LatencyMetric)
	} else {
		var paths [][]wire.NodeID
		paths, err = topology.KDisjointPaths(view, n.ID(), f.spec.DstNode, f.spec.DisjointK, topology.LatencyMetric)
		if err == nil {
			if len(paths) == 0 {
				return mask, fmt.Errorf("session: no path to %v", f.spec.DstNode)
			}
			mask, err = topology.DisjointMask(view, paths)
		}
	}
	if err != nil {
		return mask, fmt.Errorf("session: source mask: %w", err)
	}
	f.mask = mask
	f.maskVersion = ver
	f.maskValid = true
	return mask, nil
}
