package sonet

import (
	"fmt"
	"time"

	"sonet/internal/session"
	"sonet/internal/transport"
)

// DaemonLink declares one overlay link of a deployment.
type DaemonLink struct {
	// A and B are the endpoints.
	A, B NodeID
	// Latency is the designed one-way latency.
	Latency time.Duration
}

// DaemonConfig describes one overlay node deployment over real UDP.
type DaemonConfig struct {
	// ID is this daemon's overlay node identifier.
	ID NodeID
	// BindUDP is the daemon-to-daemon frame socket ("host:port"; port 0
	// binds an ephemeral port).
	BindUDP string
	// BindTCP is the client session listener; empty disables it.
	BindTCP string
	// Peers maps every other overlay node to its UDP addresses. Several
	// addresses per peer express multihoming: the overlay fails the link
	// over to the next address when the current one degrades.
	Peers map[NodeID][]string
	// Links is the designed overlay topology, identical on every daemon.
	Links []DaemonLink
	// HelloInterval optionally overrides failure-detection probing.
	HelloInterval time.Duration
}

// Daemon is a deployed overlay node: the same protocol stack the emulator
// runs, over real UDP sockets and a real-time event loop. It holds the
// links and peers it was started with; AddPeer, AdmitPeer and EvictPeer
// edit them.
type Daemon struct {
	inner *transport.Daemon
}

// StartDaemon builds and starts an overlay daemon.
func StartDaemon(cfg DaemonConfig) (*Daemon, error) {
	links := make([]transport.LinkDef, 0, len(cfg.Links))
	for _, l := range cfg.Links {
		links = append(links, transport.LinkDef{
			A: l.A, B: l.B,
			LatencyMs: int(l.Latency / time.Millisecond),
		})
	}
	inner, err := transport.NewDaemon(transport.DaemonConfig{
		ID:              cfg.ID,
		BindUDP:         cfg.BindUDP,
		BindTCP:         cfg.BindTCP,
		Peers:           cfg.Peers,
		Links:           links,
		HelloIntervalMs: int(cfg.HelloInterval / time.Millisecond),
	})
	if err != nil {
		return nil, fmt.Errorf("sonet: %w", err)
	}
	return &Daemon{inner: inner}, nil
}

// UDPAddr returns the daemon's bound frame address (useful with ephemeral
// ports).
func (d *Daemon) UDPAddr() string { return d.inner.UDPAddr() }

// TCPAddr returns the client listener address, if enabled.
func (d *Daemon) TCPAddr() string { return d.inner.TCPAddr() }

// AddPeer sets (or updates) a peer's UDP addresses after start, an edit
// of the daemon's peers. After Close it returns an error.
func (d *Daemon) AddPeer(id NodeID, addrs ...string) error {
	return d.inner.AddPeer(id, addrs...)
}

// AdmitPeer admits a new overlay neighbor at runtime: it sets the peer's
// addresses and, unless the daemon's links already have one, adds a
// direct link of the given designed latency. The daemon begins hello
// probing and re-announces its link state so the joiner is discovered
// fleet-wide. Admitting an evicted peer again brings its link back up.
// After Close it returns an error.
func (d *Daemon) AdmitPeer(id NodeID, latency time.Duration, addrs ...string) error {
	return d.inner.AdmitPeer(id, int(latency/time.Millisecond), addrs...)
}

// EvictPeer removes a departed overlay neighbor at runtime: it drops the
// peer and the direct link to it from the daemon's peers and links, so
// the link is withdrawn and the peer's underlay addresses and steering
// state drop. After Close it does nothing.
func (d *Daemon) EvictPeer(id NodeID) { d.inner.EvictPeer(id) }

// Stats reports the daemon node's packet accounting.
func (d *Daemon) Stats() NodeStats {
	st := fromNodeStats(d.inner.NodeStats())
	st.ClientDropped = d.inner.ClientStats().Dropped
	st.Footprint = d.inner.DataPlane().Footprint()
	st.Control = d.inner.ControlStats()
	return st
}

// SchedStats reports the daemon node's fair-scheduler accounting (drops
// by cause, backpressure refusals, active-flow high-water mark),
// aggregated across its intrusion-tolerant link disciplines. Safe from
// any goroutine.
func (d *Daemon) SchedStats() SchedStats {
	return d.inner.SchedStats()
}

// Close stops the daemon.
func (d *Daemon) Close() { d.inner.Close() }

// RemoteClient is a client connected to a daemon over the TCP session
// protocol — the remote half of the client–daemon hierarchy.
type RemoteClient struct {
	inner *transport.Client
}

// DialDaemon connects to a daemon's client listener, binding the given
// virtual port (zero for ephemeral). onDeliver receives incoming messages
// on the client's network goroutine; each Delivery, payload included, is
// the application's to keep (see Delivery.Payload).
func DialDaemon(addr string, port Port, onDeliver func(Delivery)) (*RemoteClient, error) {
	var sink func(session.Delivery)
	if onDeliver != nil {
		sink = func(d session.Delivery) { onDeliver(fromSessionDelivery(d)) }
	}
	inner, err := transport.Dial(addr, port, sink)
	if err != nil {
		return nil, err
	}
	return &RemoteClient{inner: inner}, nil
}

// Port returns the bound virtual port.
func (c *RemoteClient) Port() Port { return c.inner.Port() }

// Join subscribes the client's node to a multicast group.
func (c *RemoteClient) Join(g GroupID) error { return c.inner.Join(g) }

// Leave unsubscribes from a multicast group.
func (c *RemoteClient) Leave(g GroupID) error { return c.inner.Leave(g) }

// OnError installs a callback for asynchronous daemon errors.
func (c *RemoteClient) OnError(fn func(error)) { c.inner.OnError(fn) }

// Close writes what is already queued and terminates the session; it
// returns the sticky write error, if there is one.
func (c *RemoteClient) Close() error { return c.inner.Close() }

// OpenFlow opens a flow with the given service selection.
func (c *RemoteClient) OpenFlow(spec FlowSpec) (*RemoteFlow, error) {
	inner, err := c.inner.OpenFlow(spec.sessionSpec())
	if err != nil {
		return nil, err
	}
	return &RemoteFlow{inner: inner}, nil
}

// RemoteFlow is a flow opened over the client protocol.
type RemoteFlow struct {
	inner *transport.RemoteFlow
}

// Send queues one message on the flow and returns; the payload may be
// reused at once. A write error is sticky: the next Send, OpenFlow, Join
// or Leave returns it, and so does Close. A payload larger than an
// overlay packet carries is refused with an error.
func (f *RemoteFlow) Send(payload []byte) error { return f.inner.Send(payload) }
