package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sonet/internal/metrics"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// LinkDef declares one overlay link in a daemon's topology config.
type LinkDef struct {
	// A is one endpoint.
	A wire.NodeID `json:"a"`
	// B is the other endpoint.
	B wire.NodeID `json:"b"`
	// LatencyMs is the designed one-way latency in milliseconds.
	LatencyMs int `json:"latency_ms"`
}

// DaemonConfig describes one overlay daemon deployment.
type DaemonConfig struct {
	// ID is this daemon's overlay node identifier.
	ID wire.NodeID `json:"id"`
	// BindUDP is the daemon-to-daemon frame socket ("host:port").
	BindUDP string `json:"bind_udp"`
	// BindTCP is the client session listener; empty disables it.
	BindTCP string `json:"bind_tcp"`
	// Peers maps every overlay node to its UDP addresses (one per
	// underlay path; several addresses express multihoming).
	Peers map[wire.NodeID][]string `json:"peers"`
	// Links is the designed overlay topology (shared by all daemons).
	Links []LinkDef `json:"links"`
	// HelloIntervalMs optionally overrides failure-detection probing.
	HelloIntervalMs int `json:"hello_interval_ms"`
	// Shards is the data-plane shard count: event loops and tx rings
	// behind the one UDP socket. 0 means min(GOMAXPROCS, 8).
	// The overlay protocol shards with them: one forwarding engine per
	// loop, the control plane (link state, routing, groups, sessions)
	// single-threaded on shard 0's, every peer homed on one shard by a
	// stable hash of its node id, and that shard running the peer's link
	// sessions, QoS schedulers, and transit forwarding end to end.
	Shards int `json:"shards"`
}

// Daemon is one deployed overlay node: the node software over a sharded
// UDP underlay, plus the TCP session listener for clients. Every shard's
// loop runs one forwarding engine of the node's data plane; shard 0's is
// also the control loop. Each peer is homed on one shard (wire.HomeShard
// of its node id), whose loop owns the peer's link sessions and forwards
// its transit data frames — a transit frame whose next hop shares its
// arrival shard never crosses a shard boundary. The underlay delivers
// control frames (hellos, link-state, group-state, membership) on shard 0
// and every other frame on its sender's home.
type Daemon struct {
	cfg   DaemonConfig
	loops *sim.ShardedLoop
	// loop is the control shard's event loop: node, sessions, clients.
	loop *sim.Loop
	node *node.Node
	// plane is the node's data plane. Atomic because shard loops consult
	// it from the underlay handler while NewDaemon is still wiring it up.
	plane atomic.Pointer[node.DataPlane]
	mgr   *session.Manager
	udp   *UDPUnderlay
	ln    net.Listener

	mu      sync.Mutex
	clients map[*clientConn]struct{}
	closed  bool
	wg      sync.WaitGroup

	// edge counts client-protocol traffic across every connection.
	edge clientEdgeCounters
}

// NewDaemon builds and starts a daemon from config.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	g := topology.NewGraph()
	for _, l := range cfg.Links {
		if _, err := g.AddLink(l.A, l.B, time.Duration(l.LatencyMs)*time.Millisecond); err != nil {
			return nil, fmt.Errorf("transport: link %v-%v: %w", l.A, l.B, err)
		}
	}
	d := &Daemon{
		cfg:     cfg,
		loops:   sim.NewShardedLoop(cfg.Shards),
		clients: make(map[*clientConn]struct{}),
	}
	d.loop = d.loops.Shard(0)
	// Each shard's deliveries run on its own loop and go to that shard's
	// engine; until the plane pointer is published they drop (only possible
	// for frames racing daemon startup).
	udp, err := NewShardedUDPUnderlay(cfg.BindUDP, d.loops.Executors(), func(shard int, from wire.NodeID, data []byte) {
		if pl := d.plane.Load(); pl != nil {
			pl.HandleUnderlay(shard, from, data)
		}
	})
	if err != nil {
		d.loops.Close()
		return nil, err
	}
	d.udp = udp
	for id, addrs := range cfg.Peers {
		if id == cfg.ID {
			continue
		}
		if err := d.AddPeer(id, addrs...); err != nil {
			d.shutdownEarly()
			return nil, err
		}
	}
	// Every shard clock shares one epoch so timestamps (frame send times,
	// packet origins) compare across shards.
	epoch := time.Now()
	ncfg := node.Config{
		ID:       cfg.ID,
		Clock:    sim.NewRealtimeClockAt(d.loop, epoch),
		Underlay: udp,
		Graph:    g,
	}
	if cfg.HelloIntervalMs > 0 {
		ncfg.LinkState.HelloInterval = time.Duration(cfg.HelloIntervalMs) * time.Millisecond
	}
	n, err := node.New(ncfg)
	if err != nil {
		d.shutdownEarly()
		return nil, err
	}
	d.node = n
	d.mgr = session.NewManager(n)
	clocks := make([]sim.Clock, d.loops.NumShards())
	for i := 1; i < len(clocks); i++ {
		clocks[i] = sim.NewRealtimeClockAt(d.loops.Shard(i), epoch)
	}
	n.DataPlane().Grow(d.loops, clocks)
	done := make(chan struct{})
	d.loop.Post(func() {
		// Publishing on the control loop serializes the node's start with
		// shard 0's first delivery.
		d.plane.Store(n.DataPlane())
		n.Start()
		close(done)
	})
	<-done

	if cfg.BindTCP != "" {
		ln, err := net.Listen("tcp", cfg.BindTCP)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("transport: client listener: %w", err)
		}
		d.ln = ln
		d.wg.Add(1)
		go d.acceptLoop()
	}
	return d, nil
}

// errDaemonClosed is what a call that needs the control loop returns after
// Close.
var errDaemonClosed = errors.New("transport: daemon closed")

func (d *Daemon) shutdownEarly() {
	_ = d.udp.Close()
	d.loops.Close()
}

// UDPAddr returns the daemon's bound frame address.
func (d *Daemon) UDPAddr() string { return d.udp.LocalAddr() }

// Shards returns the running data-plane shard count.
func (d *Daemon) Shards() int { return d.udp.NumShards() }

// ShardStats returns shard i's own datagram counters; safe from any
// goroutine.
func (d *Daemon) ShardStats(i int) metrics.WireSnapshot { return d.udp.ShardStats(i) }

// AddPeer registers (or updates) a peer's UDP addresses after start —
// used when daemons bind ephemeral ports and exchange addresses out of
// band. The underlay homes the peer on wire.HomeShard of its node id, the
// shard whose loop owns the peer's link sessions, so re-registration
// never moves a live flow.
func (d *Daemon) AddPeer(id wire.NodeID, addrs ...string) error {
	return d.udp.AddPeer(id, addrs...)
}

// RemovePeer unregisters a departed peer from the underlay: its sender
// addresses are dropped, so a node that left the overlay no longer
// occupies peer-table state. A later AddPeer (rejoin, possibly from new
// addresses) re-registers it.
func (d *Daemon) RemovePeer(id wire.NodeID) { d.udp.RemovePeer(id) }

// AdmitPeer admits a new overlay neighbor at runtime: the peer's UDP
// addresses register (homed on its home shard), the shared topology
// gains the node and a direct link of the given designed latency, and
// the daemon's node begins hello probing and re-announces its link
// state, so the new member is discovered fleet-wide through normal LSA
// flooding. Idempotent: calling again just refreshes the addresses.
// After Close it returns an error.
func (d *Daemon) AdmitPeer(id wire.NodeID, latencyMs int, addrs ...string) error {
	if id == d.cfg.ID {
		return fmt.Errorf("transport: cannot admit self")
	}
	if err := d.AddPeer(id, addrs...); err != nil {
		return err
	}
	ch := make(chan error, 1)
	if !d.loop.TryPost(func() {
		ch <- d.node.AdmitNeighbor(id, time.Duration(latencyMs)*time.Millisecond)
	}) {
		return errDaemonClosed
	}
	return <-ch
}

// LearnLink teaches the node a remote link it is not an endpoint of (a
// config reload on a non-adjacent daemon): the topology view grows so
// SPF can route through the new link, while hello probing and
// availability stay the endpoints' business. Links adjacent to this
// daemon are delegated to the full admission path. After Close it returns
// an error.
func (d *Daemon) LearnLink(a, b wire.NodeID, latencyMs int) error {
	ch := make(chan error, 1)
	if !d.loop.TryPost(func() {
		ch <- d.node.LearnLink(a, b, time.Duration(latencyMs)*time.Millisecond)
	}) {
		return errDaemonClosed
	}
	return <-ch
}

// EvictPeer removes a departed overlay neighbor at runtime: the node
// withdraws the link (administrative down) and purges the peer's
// advertisement history on its loop, then the underlay drops the peer's
// addresses. After Close it does nothing.
func (d *Daemon) EvictPeer(id wire.NodeID) {
	done := make(chan struct{})
	if !d.loop.TryPost(func() {
		d.node.EvictNeighbor(id)
		close(done)
	}) {
		return
	}
	<-done
	d.udp.RemovePeer(id)
}

// TCPAddr returns the client listener address, if enabled.
func (d *Daemon) TCPAddr() string {
	if d.ln == nil {
		return ""
	}
	return d.ln.Addr().String()
}

// Node returns the daemon's overlay node. The node is single-threaded on
// the daemon loop; cross-thread diagnostics should use NodeStats.
func (d *Daemon) Node() *node.Node { return d.node }

// WireStats returns the UDP underlay's datagram counters (batches,
// packets, bytes per direction, and how many datagrams left segmented
// and arrived coalesced); safe from any goroutine.
func (d *Daemon) WireStats() metrics.WireSnapshot { return d.udp.Stats() }

// SchedStats returns the node's fair-scheduler accounting — drops by
// cause, backpressure refusals, active-flow high-water mark — aggregated
// across every IT discipline instance. The counters are atomic; safe from
// any goroutine, no loop round-trip needed.
func (d *Daemon) SchedStats() metrics.SchedSnapshot { return d.node.SchedStats() }

// NodeStats reads every shard's counters, each on its own loop, and
// merges them; safe from any goroutine. A loop that Close has already
// stopped contributes zeros, so it returns zeros after Close and never
// waits on a loop that will not answer.
func (d *Daemon) NodeStats() node.Stats {
	ch := make(chan node.Stats, 1)
	if !d.loop.TryPost(func() { ch <- d.node.Stats() }) {
		return node.Stats{}
	}
	return (<-ch).Merge(d.node.DataPlane().Stats())
}

// ControlStats reads the node's flooding account on the control loop;
// zeros after Close, like NodeStats.
func (d *Daemon) ControlStats() node.ControlStats {
	ch := make(chan node.ControlStats, 1)
	if !d.loop.TryPost(func() { ch <- d.node.ControlStats() }) {
		return node.ControlStats{}
	}
	return <-ch
}

// DataPlane returns the node's data plane: one forwarding engine per
// shard. Diagnostics only.
func (d *Daemon) DataPlane() *node.DataPlane { return d.node.DataPlane() }

// Close stops the daemon: listener, client connections, node timers,
// underlay socket, and the event loop.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	conns := make([]*clientConn, 0, len(d.clients))
	for c := range d.clients {
		conns = append(conns, c)
	}
	d.mu.Unlock()
	if d.ln != nil {
		_ = d.ln.Close()
	}
	for _, c := range conns {
		c.close()
	}
	done := make(chan struct{})
	d.loop.Post(func() {
		d.node.Stop()
		close(done)
	})
	<-done
	// The other shards' engines close on their own loops (their queued
	// traffic accounts as closed drops) before the loops themselves stop.
	d.node.DataPlane().Close()
	_ = d.udp.Close()
	d.loops.Close()
	d.wg.Wait()
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return
		}
		if !d.serve(conn) {
			return
		}
	}
}

// serve attaches one client connection to the daemon and starts its read
// and write loops; false means the daemon is closed and conn with it.
func (d *Daemon) serve(conn net.Conn) bool {
	c := &clientConn{d: d, conn: conn, w: newEdgeWriter(conn)}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		_ = conn.Close()
		return false
	}
	d.clients[c] = struct{}{}
	d.wg.Add(2)
	d.mu.Unlock()
	go c.readLoop()
	go c.writeLoop()
	return true
}

// ClientEdgeStats counts the client protocol's traffic across all of a
// daemon's client connections. FramesOut/Flushes is how many messages one
// socket write carried on average; Dropped is every message refused
// because its connection's queue was full.
type ClientEdgeStats struct {
	// FramesIn counts requests read from clients.
	FramesIn uint64
	// FramesOut counts messages written to clients.
	FramesOut uint64
	// Flushes counts socket writes toward clients.
	Flushes uint64
	// Dropped counts messages discarded at a full connection queue.
	Dropped uint64
}

// clientEdgeCounters is the live form of ClientEdgeStats.
type clientEdgeCounters struct {
	framesIn, framesOut, flushes, dropped atomic.Uint64
}

// ClientStats returns the client-protocol counters; safe from any
// goroutine.
func (d *Daemon) ClientStats() ClientEdgeStats {
	return ClientEdgeStats{
		FramesIn:  d.edge.framesIn.Load(),
		FramesOut: d.edge.framesOut.Load(),
		Flushes:   d.edge.flushes.Load(),
		Dropped:   d.edge.dropped.Load(),
	}
}

const (
	// clientQueueLen bounds the messages queued toward one client.
	clientQueueLen = 256
	// clientBatchMax bounds the requests one loop turn runs for one
	// connection, the same quota the UDP hand-off drains keep, so a fast
	// client cannot starve timers and other connections.
	clientBatchMax = rxDrainQuota
	// arenaChunk is the allocation unit request bodies are carved from.
	arenaChunk = 32 << 10
)

// clientConn bridges one TCP client to the session manager.
type clientConn struct {
	d    *Daemon
	conn net.Conn
	// w queues messages toward the client and writes them.
	w *edgeWriter

	// session and flows belong to the daemon loop.
	session *session.Client
	flows   map[uint16]*session.Flow
}

func (c *clientConn) close() {
	if !c.w.close() {
		return
	}
	_ = c.conn.Close()
	c.d.loop.Post(func() {
		if c.session != nil {
			c.session.Close()
		}
	})
	c.d.mu.Lock()
	delete(c.d.clients, c)
	c.d.mu.Unlock()
}

// enqueue queues one message, hdr followed by payload, toward the client
// as a single frame encoded straight into the egress buffer. When the
// client cannot keep up the message is dropped and counted (timely service
// beats unbounded buffering).
func (c *clientConn) enqueue(hdr, payload []byte) {
	if !c.w.offer(hdr, payload) {
		c.d.edge.dropped.Add(1)
	}
}

// send queues a control reply toward the client.
func (c *clientConn) send(msg []byte) { c.enqueue(msg, nil) }

func (c *clientConn) sendError(err error) {
	c.send(append([]byte{msgError}, []byte(err.Error())...))
}

// writeLoop runs the connection's writer, counting each flush.
func (c *clientConn) writeLoop() {
	defer c.d.wg.Done()
	c.w.run(func(frames int) {
		c.d.edge.flushes.Add(1)
		c.d.edge.framesOut.Add(uint64(frames))
	})
}

// payloadArena carves request bodies out of shared chunks: one allocation
// serves dozens of messages, and each body is an independent heap slice
// whose ownership can pass to the session (a chunk is collected once every
// body carved from it is dead). It belongs to the connection's read loop.
type payloadArena struct{ free []byte }

// copy returns a private, capacity-clipped copy of b.
func (a *payloadArena) copy(b []byte) []byte {
	if len(b) > arenaChunk/4 {
		return append([]byte(nil), b...)
	}
	if len(b) > len(a.free) {
		a.free = make([]byte, arenaChunk)
	}
	out := a.free[:len(b):len(b)]
	a.free = a.free[len(b):]
	copy(out, b)
	return out
}

// clientBatch is every request one read wakeup decoded, posted to the
// daemon loop as a single pooled sim.Runner: one loop handoff per batch,
// and a connection's requests run in the order they were sent.
type clientBatch struct {
	c    *clientConn
	msgs [][]byte
}

var clientBatchPool = sync.Pool{New: func() any { return new(clientBatch) }}

// Run implements sim.Runner on the daemon loop.
func (b *clientBatch) Run() {
	for i, m := range b.msgs {
		b.c.handle(m[0], m[1:])
		b.msgs[i] = nil
	}
	b.c, b.msgs = nil, b.msgs[:0]
	clientBatchPool.Put(b)
}

// readLoop blocks for one frame, then gathers every further frame the
// same read already buffered, copying each out of the reader's buffer
// exactly once.
func (c *clientConn) readLoop() {
	defer c.d.wg.Done()
	defer c.close()
	fr := newFrameReader(c.conn)
	var arena payloadArena
	for {
		msg, err := fr.next()
		if err != nil {
			return
		}
		b := clientBatchPool.Get().(*clientBatch)
		b.c = c
		for err == nil {
			if len(msg) > 0 {
				b.msgs = append(b.msgs, arena.copy(msg))
			}
			if !fr.buffered() || len(b.msgs) >= clientBatchMax {
				break
			}
			msg, err = fr.next()
		}
		c.d.edge.framesIn.Add(uint64(len(b.msgs)))
		c.d.loop.PostRunner(b)
		if err != nil {
			return
		}
	}
}

// handle runs one client request on the daemon loop.
func (c *clientConn) handle(kind byte, body []byte) {
	switch kind {
	case msgConnect:
		c.onConnect(body)
	case msgJoin, msgLeave:
		c.onJoinLeave(kind, body)
	case msgOpenFlow:
		c.onOpenFlow(body)
	case msgSend:
		c.onSend(body)
	}
}

func (c *clientConn) onConnect(body []byte) {
	if len(body) < 2 || c.session != nil {
		c.sendError(fmt.Errorf("bad connect"))
		return
	}
	port := wire.Port(binary.BigEndian.Uint16(body))
	cl, err := c.d.mgr.Connect(port)
	if err != nil {
		c.sendError(err)
		return
	}
	c.session = cl
	c.flows = make(map[uint16]*session.Flow)
	cl.OnDeliver(func(dv session.Delivery) { c.deliver(dv) })
	ok := make([]byte, 3)
	ok[0] = msgOK
	binary.BigEndian.PutUint16(ok[1:], uint16(cl.Port()))
	c.send(ok)
}

func (c *clientConn) onJoinLeave(kind byte, body []byte) {
	if c.session == nil || len(body) < 4 {
		return
	}
	g := wire.GroupID(binary.BigEndian.Uint32(body))
	if kind == msgJoin {
		c.session.Join(g)
	} else {
		c.session.Leave(g)
	}
}

// Flow spec encoding: id(2) dst(2) dstport(2) group(4) flags(1)
// linkproto(1) disjointk(1) dissem(1) deadline µs(4) priority(1).
const (
	flowFlagAnycast = 1 << iota
	flowFlagOrdered
	flowFlagFlood
)

func (c *clientConn) onOpenFlow(body []byte) {
	if c.session == nil || len(body) < 19 {
		c.sendError(fmt.Errorf("bad openflow"))
		return
	}
	id := binary.BigEndian.Uint16(body[0:])
	spec := session.FlowSpec{
		DstNode:   wire.NodeID(binary.BigEndian.Uint16(body[2:])),
		DstPort:   wire.Port(binary.BigEndian.Uint16(body[4:])),
		Group:     wire.GroupID(binary.BigEndian.Uint32(body[6:])),
		LinkProto: wire.LinkProtoID(body[11]),
		DisjointK: int(body[12]),
		Dissem:    topology.ProblemArea(body[13]),
		Deadline:  time.Duration(binary.BigEndian.Uint32(body[14:])) * time.Microsecond,
		Priority:  body[18],
	}
	flags := body[10]
	spec.Anycast = flags&flowFlagAnycast != 0
	spec.Ordered = flags&flowFlagOrdered != 0
	spec.Flood = flags&flowFlagFlood != 0
	// A reused id replaces its flow, which must give its port back.
	if old := c.flows[id]; old != nil {
		old.Close()
		delete(c.flows, id)
	}
	f, err := c.session.OpenFlow(spec)
	if err != nil {
		c.sendError(err)
		return
	}
	c.flows[id] = f
	c.send([]byte{msgOK})
}

func (c *clientConn) onSend(body []byte) {
	if c.session == nil || len(body) < 2 {
		return
	}
	id := binary.BigEndian.Uint16(body)
	f, ok := c.flows[id]
	if !ok {
		c.sendError(fmt.Errorf("unknown flow %d", id))
		return
	}
	// body is the read loop's private copy; the flow takes it over.
	if err := f.Send(body[2:]); err != nil {
		c.sendError(err)
	}
}

// deliverHeaderLen is kind(1) from(2) srcport(2) seq(4) group(4)
// latency ns(8) recovered(1), the msgDeliver fields ahead of the payload.
const deliverHeaderLen = 22

// deliver encodes one delivery straight into the connection's egress
// queue. dv.Payload is only borrowed: it is copied before deliver returns.
func (c *clientConn) deliver(dv session.Delivery) {
	var hdr [deliverHeaderLen]byte
	hdr[0] = msgDeliver
	binary.BigEndian.PutUint16(hdr[1:], uint16(dv.From))
	binary.BigEndian.PutUint16(hdr[3:], uint16(dv.SrcPort))
	binary.BigEndian.PutUint32(hdr[5:], dv.Seq)
	binary.BigEndian.PutUint32(hdr[9:], uint32(dv.Group))
	binary.BigEndian.PutUint64(hdr[13:], uint64(dv.Latency))
	if dv.Retransmitted {
		hdr[21] = 1
	}
	c.enqueue(hdr[:], dv.Payload)
}
