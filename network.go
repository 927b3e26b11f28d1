package sonet

import (
	"fmt"
	"time"

	"sonet/internal/core"
	"sonet/internal/itmsg"
	"sonet/internal/link"
	"sonet/internal/membership"
	"sonet/internal/metrics"
	"sonet/internal/netemu"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// ErrBackpressure is returned by Flow.Send when every egress scheduler
// queue refused the packet: the flow's fair-share buffer at the first hop
// is saturated. Back off and retry; the flow itself stays usable.
var ErrBackpressure = link.ErrBackpressure

// Link describes one overlay link of an emulated network: two nodes, a
// designed one-way latency, and the link's loss behaviour.
type Link struct {
	// A and B are the endpoints (nonzero node IDs).
	A, B NodeID
	// Latency is the one-way latency (the paper favors ~10 ms links).
	Latency time.Duration
	// Jitter adds a uniform [0, Jitter) per-packet delay.
	Jitter time.Duration
	// LossRate drops packets independently with this probability.
	LossRate float64
	// BurstLoss, when set, replaces LossRate with a Gilbert–Elliott
	// bursty loss channel.
	BurstLoss *BurstLoss
}

// BurstLoss parameterizes correlated (bursty) loss: the channel flips
// between Good and Bad states in 1 ms steps.
type BurstLoss struct {
	// PGoodBad is the per-step probability of entering a burst.
	PGoodBad float64
	// PBadGood is the per-step probability of leaving a burst.
	PBadGood float64
	// LossGood is the drop rate outside bursts.
	LossGood float64
	// LossBad is the drop rate inside bursts.
	LossBad float64
}

// options collects network construction options.
type options struct {
	helloInterval time.Duration
	helloMiss     int
	strikes       link.StrikesConfig
	itSched       itmsg.SchedConfig
	authSeed      []byte
	compromised   map[NodeID]node.Compromise
	membership    bool
}

// Option adjusts network construction.
type Option func(*options)

// WithHelloInterval sets the neighbor probe period, which controls
// failure-detection (and hence rerouting) latency.
func WithHelloInterval(d time.Duration) Option {
	return func(o *options) { o.helloInterval = d }
}

// WithHelloMiss sets how many consecutive unanswered probes fail a path.
func WithHelloMiss(n int) Option {
	return func(o *options) { o.helloMiss = n }
}

// WithStrikes configures the NM-Strikes real-time service: N requests, M
// retransmissions, and the recovery budget.
func WithStrikes(n, m int, budget time.Duration) Option {
	return func(o *options) {
		o.strikes = link.StrikesConfig{N: n, M: m, Budget: budget}
	}
}

// WithITCapacity configures the intrusion-tolerant schedulers: the paced
// link rate (packets/second) and the per-source/per-flow buffer size.
func WithITCapacity(rate float64, buffer int) Option {
	return func(o *options) {
		o.itSched = itmsg.SchedConfig{Rate: rate, BufferPerSource: buffer}
	}
}

// WithAuthentication enables Ed25519 source signatures and per-link HMACs
// derived from the deployment seed (§IV-B).
func WithAuthentication(seed []byte) Option {
	return func(o *options) { o.authSeed = append([]byte(nil), seed...) }
}

// WithMembership enables the dynamic membership subsystem on every node:
// a replicated member directory with epoch-versioned records, join
// admission through any contact node, graceful leave announcements, and
// the periodic self-stabilizing detector/corrector that repairs stale
// topology state. Required for JoinNode/LeaveNode.
func WithMembership() Option {
	return func(o *options) { o.membership = true }
}

// WithCompromisedNode makes one node Byzantine: it keeps its credentials
// and participates in routing but blackholes data packets (§IV-B).
func WithCompromisedNode(id NodeID) Option {
	return compromiseOption(id, node.Compromise{DropData: true})
}

// WithCorruptingNode makes one node tamper with forwarded payloads; under
// WithAuthentication the tampered copies fail signature verification
// downstream.
func WithCorruptingNode(id NodeID) Option {
	return compromiseOption(id, node.Compromise{CorruptData: true})
}

// WithDelayingNode makes one node hold forwarded data for d before
// passing it on (a stealthy performance attacker).
func WithDelayingNode(id NodeID, d time.Duration) Option {
	return compromiseOption(id, node.Compromise{DelayData: d})
}

func compromiseOption(id NodeID, c node.Compromise) Option {
	return func(o *options) {
		if o.compromised == nil {
			o.compromised = make(map[NodeID]node.Compromise)
		}
		o.compromised[id] = c
	}
}

// Network is an emulated structured overlay running in deterministic
// virtual time: the world every example and benchmark drives.
type Network struct {
	sim *core.Simple
	// arena carves every client's delivered payloads; the world's
	// scheduler is its one goroutine.
	arena wire.Arena
}

// New builds (and starts) an emulated overlay with the given links. The
// seed fixes every random choice, making runs bit-for-bit reproducible.
func New(seed uint64, links []Link, opts ...Option) (*Network, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("sonet: topology needs at least one link")
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	s, err := core.BuildSimple(seed, simpleLinks(links))
	if err != nil {
		return nil, fmt.Errorf("sonet: %w", err)
	}
	all := s.Graph.Nodes()
	s.SetNodeTemplate(func(cfg *node.Config) {
		if o.helloInterval > 0 {
			cfg.LinkState.HelloInterval = o.helloInterval
		}
		if o.helloMiss > 0 {
			cfg.LinkState.HelloMiss = o.helloMiss
		}
		if o.strikes.N > 0 {
			cfg.Strikes = o.strikes
		}
		if o.itSched.Rate > 0 {
			cfg.ITSched = o.itSched
		}
		if o.authSeed != nil {
			cfg.Keyring = itmsg.NewDeterministicKeyring(cfg.ID, all, o.authSeed)
		}
		if c, ok := o.compromised[cfg.ID]; ok {
			cfg.Compromised = c
		}
		if o.membership {
			mc := membership.DefaultConfig()
			mc.Seed = all
			cfg.Membership = &mc
		}
	})
	if err := s.Start(); err != nil {
		return nil, fmt.Errorf("sonet: %w", err)
	}
	n := &Network{sim: s}
	n.Settle()
	return n, nil
}

// Close quiesces the overlay.
func (n *Network) Close() { n.sim.Stop() }

// Run advances virtual time by d, executing all protocol activity due in
// that span.
func (n *Network) Run(d time.Duration) { n.sim.RunFor(d) }

// RunAt schedules fn to run at virtual-time offset d from now (failure
// injection, traffic scripting). It returns no handle, so the event rides
// on the scheduler's pooled ones.
func (n *Network) RunAt(d time.Duration, fn func()) {
	n.sim.Sched.AfterRunner(d, sim.RunnerFunc(fn))
}

// Settle runs long enough for hellos, link-state, and group floods to
// converge.
func (n *Network) Settle() { n.sim.Settle() }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.sim.Now() }

// Connect attaches a client to an overlay node on the given virtual port
// (zero allocates an ephemeral port).
func (n *Network) Connect(at NodeID, port Port) (*Client, error) {
	mgr := n.sim.Session(at)
	if mgr == nil {
		return nil, fmt.Errorf("sonet: no node %v", at)
	}
	c, err := mgr.Connect(port)
	if err != nil {
		return nil, err
	}
	return &Client{inner: c, net: n}, nil
}

// CutLink severs the underlay fiber beneath an overlay link; the overlay
// detects and reroutes via its hello protocol.
func (n *Network) CutLink(a, b NodeID) error { return n.sim.CutLink(a, b) }

// RestoreLink repairs a previously cut link.
func (n *Network) RestoreLink(a, b NodeID) error { return n.sim.RestoreLink(a, b) }

// SetLinkLoss applies an added drop probability to one overlay link's
// underlay (a degradation episode knob).
func (n *Network) SetLinkLoss(a, b NodeID, p float64) error {
	return n.sim.SetLinkExtraLoss(a, b, p)
}

// FailNode takes a node's entire data center offline.
func (n *Network) FailNode(id NodeID) {
	if st, ok := n.sim.Net.NodeSite(id); ok {
		n.sim.Net.SetSiteUp(st, false)
	}
}

// RestoreNode brings a failed node's data center back.
func (n *Network) RestoreNode(id NodeID) {
	if st, ok := n.sim.Net.NodeSite(id); ok {
		n.sim.Net.SetSiteUp(st, true)
	}
}

// JoinNode admits a new node into the running overlay at runtime: the
// topology gains the node and its links (each served by a dedicated
// emulated provider, like the designed links), every running node
// absorbs the growth, the joiner starts, and — with WithMembership — it
// runs the in-band admission handshake through contact, which must be at
// the far end of one of its links. Run or Settle afterwards to let the
// admission and link-state floods converge.
func (n *Network) JoinNode(id NodeID, contact NodeID, links ...Link) error {
	return n.sim.Join(id, contact, simpleLinks(links), nil)
}

// simpleLinks lowers public links to the emulated world's, each with a
// loss model of its own (a bursty model is stateful and must not be shared).
func simpleLinks(links []Link) []core.SimpleLink {
	sls := make([]core.SimpleLink, 0, len(links))
	for _, l := range links {
		sl := core.SimpleLink{A: l.A, B: l.B, Latency: l.Latency, Jitter: l.Jitter}
		switch {
		case l.BurstLoss != nil:
			b := l.BurstLoss
			sl.Loss = netemu.NewGilbertElliott(b.PGoodBad, b.PBadGood, b.LossGood, b.LossBad)
		case l.LossRate > 0:
			sl.Loss = netemu.Bernoulli{P: l.LossRate}
		}
		sls = append(sls, sl)
	}
	return sls
}

// LeaveNode departs a node gracefully: it floods its departure record
// and withdraws every adjacent link, then stops. Survivors converge
// without it; RejoinNode brings it back.
func (n *Network) LeaveNode(id NodeID) error { return n.sim.Leave(id) }

// RejoinNode restarts a departed (or crashed) node as a fresh
// incarnation over its designed links and — with WithMembership — runs
// the admission handshake through contact, healing its deliberately
// stale seeded directory via anti-entropy.
func (n *Network) RejoinNode(id NodeID, contact NodeID) error {
	if err := n.sim.RestartNode(id); err != nil {
		return err
	}
	if m := n.sim.Node(id).Membership(); m != nil && contact != 0 {
		m.Join(contact)
	}
	return nil
}

// Members returns the member list in one node's directory view (sorted
// ascending), or nil when membership is disabled or the node is unknown.
func (n *Network) Members(at NodeID) []NodeID {
	nd := n.sim.Node(at)
	if nd == nil {
		return nil
	}
	m := nd.Membership()
	if m == nil {
		return nil
	}
	return m.Directory().Members(nil)
}

// PathBetween returns the current overlay route between two nodes under
// the shared view (diagnostics).
func (n *Network) PathBetween(a, b NodeID) []NodeID {
	nd := n.sim.Node(a)
	if nd == nil {
		return nil
	}
	return nd.Engine().PathTo(b)
}

// NodeStats reports a node's packet accounting.
func (n *Network) NodeStats(id NodeID) (NodeStats, bool) {
	nd := n.sim.Node(id)
	if nd == nil {
		return NodeStats{}, false
	}
	st := fromNodeStats(nd.Stats())
	st.Footprint = nd.DataPlane().Footprint()
	st.Control = nd.ControlStats()
	return st, true
}

// SchedStats reports a node's fair-scheduler accounting (§IV-B QoS
// plane), aggregated across its intrusion-tolerant link disciplines.
func (n *Network) SchedStats(id NodeID) (SchedStats, bool) {
	nd := n.sim.Node(id)
	if nd == nil {
		return SchedStats{}, false
	}
	return nd.SchedStats(), true
}

// SchedStats summarizes one node's fair-scheduler activity: queue
// throughput, drops by cause, backpressure refusals, and flow-table
// occupancy.
type SchedStats = metrics.SchedSnapshot

// NodeStats summarizes one overlay node's packet handling: what it
// carried, and every way it can lose a packet, each under its own count.
type NodeStats struct {
	// Originated counts packets injected by local clients.
	Originated uint64
	// Forwarded counts transmissions toward neighbors.
	Forwarded uint64
	// DeliveredLocal counts packets handed to local clients.
	DeliveredLocal uint64
	// Duplicates counts redundant copies suppressed in the middle of the
	// network.
	Duplicates uint64
	// DroppedTTL counts packets dropped at TTL expiry.
	DroppedTTL uint64
	// DroppedNoRoute counts packets the node had no route for.
	DroppedNoRoute uint64
	// DroppedAuth counts packets and frames failing authentication.
	DroppedAuth uint64
	// DroppedUnknownPeer counts frames from, and packets toward, a node
	// that is not a registered neighbor, and any frame a deployed daemon's
	// shard received that was not its to handle.
	DroppedUnknownPeer uint64
	// DroppedCrossing counts packets a deployed daemon's full shard-crossing
	// ring refused in transit. Always zero on emulated nodes, which run one
	// shard.
	DroppedCrossing uint64
	// DroppedMalformed counts frames and routing-level control payloads
	// (link state, group state, membership) that failed to decode.
	DroppedMalformed uint64
	// Blackholed counts packets absorbed by compromised behaviour.
	Blackholed uint64
	// ClientDropped counts messages a deployed daemon discarded because a
	// client connection's delivery queue was full (the client read too
	// slowly). Always zero on emulated nodes, whose clients are in-process.
	ClientDropped uint64
	// Footprint is what the node holds resident now, by count.
	Footprint Footprint
	// Control is what the node's link-state and group-state floods cost.
	Control ControlStats
}

// ControlStats counts a node's routing-level flooding, link state and group
// state side by side: flooded packets accepted as news and passed on,
// flooded packets discarded as already seen, packets refused because their
// origin is not an overlay member, and retained packets pushed to a neighbor
// whose link recovered.
type ControlStats = node.ControlStats

// Footprint counts a node's resident protocol state: the flows its
// duplicate suppression tracks, and, over all its link endpoints, packets
// held for retransmission and their bytes. WindowBytes counts every sequence
// bitmap: the endpoints' receive windows and one per tracked flow.
type Footprint = node.Footprint

func fromNodeStats(st node.Stats) NodeStats {
	return NodeStats{
		Originated:         st.Originated,
		Forwarded:          st.Forwarded,
		DeliveredLocal:     st.DeliveredLocal,
		Duplicates:         st.Duplicates,
		DroppedTTL:         st.DroppedTTL,
		DroppedNoRoute:     st.DroppedNoRoute,
		DroppedAuth:        st.DroppedAuth,
		DroppedUnknownPeer: st.DroppedUnknownPeer,
		DroppedCrossing:    st.DroppedCrossing,
		DroppedMalformed:   st.DroppedMalformed,
		Blackholed:         st.Blackholed,
	}
}

// Client is an application endpoint attached to an overlay node.
type Client struct {
	inner *session.Client
	net   *Network
}

// Port returns the client's virtual port.
func (c *Client) Port() Port { return c.inner.Port() }

// OnDeliver installs a synchronous delivery callback. The Delivery it is
// handed, payload included, is the application's to keep (see
// Delivery.Payload).
func (c *Client) OnDeliver(fn func(Delivery)) {
	c.inner.OnDeliver(func(d session.Delivery) {
		// The session level only lends the payload (it aliases the receive
		// buffer); this one copy, carved from the network's arena, is what
		// makes it the application's.
		d.Payload = c.net.arena.Copy(d.Payload)
		fn(fromSessionDelivery(d))
	})
}

// Deliveries drains queued deliveries (when no callback is installed).
func (c *Client) Deliveries() []Delivery {
	in := c.inner.Deliveries()
	out := make([]Delivery, len(in))
	for i, d := range in {
		out[i] = fromSessionDelivery(d)
	}
	return out
}

// Join subscribes this client's node to a multicast group.
func (c *Client) Join(g GroupID) { c.inner.Join(g) }

// Leave unsubscribes from a multicast group.
func (c *Client) Leave(g GroupID) { c.inner.Leave(g) }

// Close releases the client's port.
func (c *Client) Close() { c.inner.Close() }

// Stats summarizes the client's receive side.
func (c *Client) Stats() ClientStats {
	st := c.inner.Stats()
	return ClientStats{
		Received:    st.Received,
		Late:        st.Late,
		Duplicates:  st.Duplicates,
		MeanLatency: st.Latency.Mean(),
		P99Latency:  st.Latency.Percentile(99),
	}
}

// ClientStats summarizes deliveries to one client.
type ClientStats struct {
	// Received counts delivered messages.
	Received uint64
	// Late counts messages discarded for missing their deadline.
	Late uint64
	// Duplicates counts suppressed duplicate deliveries.
	Duplicates uint64
	// MeanLatency and P99Latency summarize one-way delivery latency.
	MeanLatency, P99Latency time.Duration
}

// OpenFlow creates a flow with the given service selection.
func (c *Client) OpenFlow(spec FlowSpec) (*Flow, error) {
	f, err := c.inner.OpenFlow(spec.sessionSpec())
	if err != nil {
		return nil, err
	}
	return &Flow{inner: f}, nil
}

// Flow is an application data flow with fixed service selection.
type Flow struct {
	inner *session.Flow
}

// Send transmits one message on the flow. The flow takes ownership of
// payload (packets in flight and a reliable flow's recovery history alias
// it): do not modify or reuse the slice after the call.
func (f *Flow) Send(payload []byte) error { return f.inner.Send(payload) }

// Sent returns the number of messages sent on the flow.
func (f *Flow) Sent() uint64 { return f.inner.Stats().Sent }

// sessionSpec maps a public flow spec onto the session layer's.
func (spec FlowSpec) sessionSpec() session.FlowSpec {
	return session.FlowSpec{
		DstNode:   spec.To,
		DstPort:   spec.ToPort,
		Group:     spec.Group,
		Anycast:   spec.Anycast,
		LinkProto: spec.Service,
		DisjointK: spec.DisjointPaths,
		Dissem:    spec.DissemGraph,
		Flood:     spec.Flood,
		Ordered:   spec.Ordered,
		Deadline:  spec.Deadline,
		Priority:  spec.Priority,
	}
}

func fromSessionDelivery(d session.Delivery) Delivery {
	return Delivery{
		From:      d.From,
		FromPort:  d.SrcPort,
		Seq:       d.Seq,
		Group:     d.Group,
		Latency:   d.Latency,
		Recovered: d.Retransmitted,
		Payload:   d.Payload,
	}
}
