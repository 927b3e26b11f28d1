package transport

import (
	"fmt"
	"math/bits"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"

	"sonet/internal/metrics"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// UDPUnderlay carries link-level frames between overlay daemons as UDP
// datagrams. It implements node.Underlay: each neighbor has one or more
// remote addresses (one per underlay path, supporting multihoming across
// provider-specific addresses).
//
// The data plane is sharded, batched, and lock-light. It binds one socket
// and runs one read loop whatever the shard count; a shard is one event
// loop plus one coalescing tx ring. Which loop owns a datagram is one
// rule, applied here and nowhere else: with more than one shard, a
// datagram wire.DatagramIsControl recognises goes to shard 0, and every
// other one to its sender's home, wire.HomeShard(sender, shards) — the
// shard whose loop owns the peer's link sessions. A peer's frames
// therefore all run, in order, on one loop, and a peer's home is a
// function of its id, not a setting.
//
//   - Receive: the read loop drains the socket in batches (recvmmsg into
//     one arena on Linux, one datagram per read elsewhere), resolves each
//     datagram's sender and dispatches it by the rule above.
//   - Delivery: decoded frames travel from the read loop to the owning
//     shard's event loop over one sim.Handoff per shard — a bounded SPSC
//     ring whose doorbell posts the drain only on the empty→non-empty
//     transition, so under sustained load frames flow with no per-packet
//     post and no lock on either side. One drain, at most rxDrainQuota
//     datagrams, is the shard's turn; OnTurnEnd hears when it ends.
//   - Sender identification: source addresses resolve through an
//     immutable peer table keyed by netip.AddrPort, read via an atomic
//     pointer — no per-packet lock, no addr.String() allocation. The
//     table carries each peer's home shard; AddPeer and RemovePeer copy
//     the table on write under a mutex and swap the pointer.
//   - Send: frames produced within one event-loop turn accumulate in
//     the flow's shard tx ring; a single flush posted on that shard's
//     executor hands the whole turn's frames to the kernel at once
//     through the one socket (sendmmsg on Linux; a write loop
//     elsewhere), so tx kernel crossings run on shard cores instead of
//     stealing protocol time. On Linux the flush is grouped by peer and
//     each run of equal-sized frames to one peer is a single UDP_SEGMENT
//     message, so a relay's forwarded data and its acks both leave
//     segmented. The Linux reader asks for UDP_GRO and splits what the
//     kernel coalesced before the read loop sees it.
//
// All per-direction batch/packet/byte counters live in per-shard
// metrics.WireStats; the read loop's accrue to shard 0. Stats aggregates
// them race-free.
type UDPUnderlay struct {
	// conn is the one bound socket: the read loop drains it and every
	// shard's writer flushes through it.
	conn *net.UDPConn
	// shards hold the per-shard executor, tx ring, writer, and counters.
	shards []*udpShard
	// rings[s] hands frames from the read loop to shard s's loop. The read
	// loop is the only producer and shard s's loop the only consumer.
	rings []*sim.Handoff[rxFrame]
	// handler receives frames on the owning shard's executor. Immutable
	// after New.
	handler ShardHandler

	// table is the immutable peer snapshot; readers load it without
	// locking. mu serializes copy-on-write updates and lifecycle.
	table  atomic.Pointer[peerTable]
	closed atomic.Bool
	mu     sync.Mutex
	// done closes when the read loop exits.
	done chan struct{}
}

// udpShard is one shard's share of the data plane: its executor, its
// coalescing tx ring, its batch writer, and its counters. Shards are
// separately allocated so their atomic counters do not share cache
// lines.
type udpShard struct {
	u    *UDPUnderlay
	idx  int
	exec sim.Executor

	// The send coalescing ring: Send appends under sendMu, the posted
	// flush swaps pending with the spare slice and writes the batch out.
	sendMu      sync.Mutex
	pending     []outFrame
	spare       []outFrame
	flushQueued bool
	flusher     flushRunner
	// writeMu serializes access to the writer's header arrays when an
	// inline executor lets flushes overlap; uncontended on the event loop.
	writeMu sync.Mutex
	writer  *batchWriter

	stats metrics.WireStats
}

// maxPending bounds each shard's coalescing ring; past it new frames are
// dropped (best-effort, like IP) rather than buffering without bound.
const maxPending = 4096

// handoffRingCap bounds each shard's hand-off ring: enough for many full
// recvmmsg batches of headroom before overload sheds.
const handoffRingCap = 1024

// rxDrainQuota bounds how many frames one drain delivers before
// re-posting itself, so a saturating flow cannot starve timers and
// control work sharing the shard's loop.
const rxDrainQuota = 4 * wire.ReadBatch

// maxShards bounds the shard count (the read loop's pending-doorbell set
// is a 64-bit mask; far above any sane core count anyway).
const maxShards = 64

// sockBuf is the socket buffer request: batch reads amortize kernel
// crossings only if bursts survive in the socket queue until the read
// loop wakes, so the socket asks for a deep buffer. The kernel clamps the
// request to net.core.rmem_max/wmem_max without privilege, so failure is
// impossible and partial grants are fine.
const sockBuf = 4 << 20

// setSockBufs applies sockBuf to a freshly bound socket.
func setSockBufs(conn *net.UDPConn) {
	_ = conn.SetReadBuffer(sockBuf)
	_ = conn.SetWriteBuffer(sockBuf)
}

// listenUDP binds the underlay's socket on bind.
func listenUDP(bind string) (*net.UDPConn, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", bind, err)
	}
	setSockBufs(conn)
	return conn, nil
}

// peerTable is an immutable snapshot of the peer registrations. A new
// table replaces the old one wholesale on every AddPeer/RemovePeer.
type peerTable struct {
	// peers maps a neighbor to its per-path addresses and home shard.
	peers map[wire.NodeID]peerEntry
	// senders maps a source address to the neighbor it belongs to.
	senders map[netip.AddrPort]senderEntry
}

// peerEntry is one neighbor's addresses plus its home shard.
type peerEntry struct {
	addrs []netip.AddrPort
	home  int32
}

// senderEntry resolves one source address to its peer and home shard.
type senderEntry struct {
	id   wire.NodeID
	home int32
}

var emptyPeerTable = &peerTable{
	peers:   map[wire.NodeID]peerEntry{},
	senders: map[netip.AddrPort]senderEntry{},
}

// outFrame is one coalesced datagram awaiting flush.
type outFrame struct {
	to  netip.AddrPort
	buf *wire.Buf
}

// rxFrame is one received datagram awaiting delivery on its shard.
type rxFrame struct {
	from wire.NodeID
	buf  *wire.Buf
}

// deliver runs one handed-off frame on shard s's loop. After Close no
// frame reaches the handler; the buffer is still released.
func (s *udpShard) deliver(f *rxFrame) {
	if !s.u.closed.Load() {
		s.u.handler(s.idx, f.from, f.buf.B)
		s.stats.RecvDelivered.Add(1)
	}
	f.buf.Release()
}

// flushRunner posts a shard's send-ring flush without allocating a
// closure.
type flushRunner struct{ s *udpShard }

// Run implements sim.Runner.
func (f *flushRunner) Run() { f.s.flush() }

// canonAddrPort normalizes an address for table keys and lookups: IPv4
// and IPv4-in-IPv6 forms of the same endpoint must collide.
func canonAddrPort(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// ShardHandler receives one decoded datagram's frame bytes on the
// executor of the shard that owns it; the shard index says which.
type ShardHandler func(shard int, from wire.NodeID, data []byte)

// NewUDPUnderlay binds a UDP socket and starts the receive loop; frames
// are handed to handler on exec (the daemon's event loop), preserving
// the single-threaded protocol model. It is the single-shard form of
// NewShardedUDPUnderlay.
func NewUDPUnderlay(bind string, exec sim.Executor, handler func(from wire.NodeID, data []byte)) (*UDPUnderlay, error) {
	return NewShardedUDPUnderlay(bind, []sim.Executor{exec},
		func(_ int, from wire.NodeID, data []byte) { handler(from, data) })
}

// NewShardedUDPUnderlay binds one socket on bind for len(execs)
// data-plane shards and starts its read loop. Frames are handed to
// handler on the owning shard's executor (shard 0 for control, the
// sender's home otherwise): handler calls for different peers may run
// concurrently (one call per shard at a time), but one peer's data
// frames are always delivered in order on one shard. Pass a
// sim.ShardedLoop's Executors() for a deployed daemon.
func NewShardedUDPUnderlay(bind string, execs []sim.Executor, handler ShardHandler) (*UDPUnderlay, error) {
	n := len(execs)
	if n == 0 {
		return nil, fmt.Errorf("transport: sharded underlay needs at least one executor")
	}
	if n > maxShards {
		return nil, fmt.Errorf("transport: %d shards exceeds the maximum of %d", n, maxShards)
	}
	conn, err := listenUDP(bind)
	if err != nil {
		return nil, err
	}
	u := &UDPUnderlay{conn: conn, handler: handler, done: make(chan struct{})}
	u.table.Store(emptyPeerTable)
	u.shards = make([]*udpShard, n)
	u.rings = make([]*sim.Handoff[rxFrame], n)
	for i := range u.shards {
		s := &udpShard{u: u, idx: i, exec: execs[i]}
		s.flusher.s = s
		w, err := newBatchWriter(conn)
		if err != nil {
			_ = conn.Close()
			return nil, fmt.Errorf("transport: batch writer: %w", err)
		}
		s.writer = w
		u.shards[i] = s
		u.rings[i] = sim.NewHandoff(handoffRingCap, rxDrainQuota, s.exec, s.deliver)
	}
	go u.readLoop()
	return u, nil
}

// OnTurnEnd sets fn to run on shard's executor at the end of each of its
// turns: after one drain has handed the handler every datagram it took
// (at most rxDrainQuota), and before the flush of the frames the turn
// sent, which the flush therefore carries too. Set it before the first
// AddPeer; until a peer is registered no datagram is delivered and no
// turn runs.
func (u *UDPUnderlay) OnTurnEnd(fn func(shard int)) {
	for i, r := range u.rings {
		r.OnTurnEnd(func() { fn(i) })
	}
}

// LocalAddr returns the bound address.
func (u *UDPUnderlay) LocalAddr() string { return u.conn.LocalAddr().String() }

// NumShards returns the data-plane shard count.
func (u *UDPUnderlay) NumShards() int { return len(u.shards) }

// Stats returns the aggregate of every shard's datagram counters.
func (u *UDPUnderlay) Stats() metrics.WireSnapshot {
	var agg metrics.WireSnapshot
	for _, s := range u.shards {
		agg = agg.Merge(s.stats.Snapshot())
	}
	return agg
}

// ShardStats returns shard i's own counters. The read loop's arrival
// counters accrue to shard 0; RecvDelivered accrues to the shard whose
// loop ran the handler.
func (u *UDPUnderlay) ShardStats(i int) metrics.WireSnapshot {
	return u.shards[i].stats.Snapshot()
}

// AddPeer registers (or re-registers) a neighbor's addresses, one per
// underlay path, homed on wire.HomeShard(id, shards): its data frames are
// delivered on that shard's executor and its Sends coalesce in that
// shard's ring. Re-registration replaces the previous addresses — frames
// from an address the peer no longer owns are dropped as unknown — and
// never moves the peer.
func (u *UDPUnderlay) AddPeer(id wire.NodeID, addrs ...string) error {
	if len(addrs) == 0 {
		return fmt.Errorf("transport: peer %v needs at least one address", id)
	}
	resolved := make([]netip.AddrPort, 0, len(addrs))
	for _, a := range addrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return fmt.Errorf("transport: resolve peer %v addr %q: %w", id, a, err)
		}
		resolved = append(resolved, canonAddrPort(ua.AddrPort()))
	}
	home := int32(wire.HomeShard(id, len(u.shards)))
	u.mu.Lock()
	defer u.mu.Unlock()
	u.table.Store(u.table.Load().withPeer(id, peerEntry{addrs: resolved, home: home}))
	return nil
}

// RemovePeer unregisters a departed peer: its addresses leave the sender
// column (frames from them drop as unknown) and Send toward it becomes a
// no-op. Like every table mutation it replaces the COW snapshot, so
// concurrent readers always see a consistent table; a later AddPeer
// re-registers it. Removing an unknown peer is a no-op.
func (u *UDPUnderlay) RemovePeer(id wire.NodeID) {
	u.mu.Lock()
	defer u.mu.Unlock()
	old := u.table.Load()
	if _, ok := old.peers[id]; !ok {
		return
	}
	u.table.Store(old.withoutPeer(id))
}

// withoutPeer returns a copy of the table with id's peer entry and every
// sender-column address owned by it dropped.
func (t *peerTable) withoutPeer(id wire.NodeID) *peerTable {
	nt := &peerTable{
		peers:   make(map[wire.NodeID]peerEntry, len(t.peers)),
		senders: make(map[netip.AddrPort]senderEntry, len(t.senders)),
	}
	for k, v := range t.peers {
		if k != id {
			nt.peers[k] = v
		}
	}
	for k, v := range t.senders {
		if v.id != id {
			nt.senders[k] = v
		}
	}
	return nt
}

// withPeer returns a copy of the table with id's entry replaced and the
// sender column rebuilt for it (stale addresses unregistered).
func (t *peerTable) withPeer(id wire.NodeID, ent peerEntry) *peerTable {
	nt := t.withoutPeer(id)
	nt.peers[id] = ent
	for _, ap := range ent.addrs {
		nt.senders[ap] = senderEntry{id: id, home: ent.home}
	}
	return nt
}

// Send implements node.Underlay: the frame joins the coalescing ring of
// the neighbor's home shard and reaches the kernel in the flush posted for
// that shard's current event-loop turn. The bytes are copied into a pooled
// buffer before Send returns, so the caller keeps ownership of data.
// Send is safe from any goroutine.
func (u *UDPUnderlay) Send(neighbor wire.NodeID, path uint8, data []byte) {
	u.sendVia(-1, neighbor, path, data)
}

// SendOn transmits like Send but coalesces on shard's own tx ring, so a
// data shard's egress shares its own flush batch instead of the
// neighbor's home's. It implements node.ShardUnderlay.
func (u *UDPUnderlay) SendOn(shard int, neighbor wire.NodeID, path uint8, data []byte) {
	if shard < 0 || shard >= len(u.shards) {
		shard = -1
	}
	u.sendVia(shard, neighbor, path, data)
}

// sendVia coalesces one frame on a shard tx ring: the given shard, or
// (shard < 0) the neighbor's home.
func (u *UDPUnderlay) sendVia(shard int, neighbor wire.NodeID, path uint8, data []byte) {
	if u.closed.Load() {
		return
	}
	tbl := u.table.Load()
	ent, ok := tbl.peers[neighbor]
	if !ok || len(ent.addrs) == 0 {
		return
	}
	addr := ent.addrs[int(path)%len(ent.addrs)]
	if shard < 0 {
		shard = int(ent.home)
	}
	s := u.shards[shard]
	buf := wire.DefaultBufPool.Get(len(data))
	buf.B = append(buf.B, data...)
	s.sendMu.Lock()
	if len(s.pending) >= maxPending {
		s.sendMu.Unlock()
		buf.Release()
		s.stats.SendDropped.Add(1)
		return
	}
	s.pending = append(s.pending, outFrame{to: addr, buf: buf})
	queued := s.flushQueued
	s.flushQueued = true
	s.sendMu.Unlock()
	if !queued {
		sim.PostRunner(s.exec, &s.flusher)
	}
}

// flush writes every frame coalesced on this shard out in one batch. It
// runs on the shard's executor, so frames produced within one event-loop
// turn share a single kernel crossing.
func (s *udpShard) flush() {
	s.sendMu.Lock()
	frames := s.pending
	s.pending = s.spare[:0]
	// Detach spare until the scan below finishes: a concurrent flush (only
	// possible with an inline executor) must not adopt frames as its new
	// pending while this one is still releasing entries outside the lock.
	s.spare = nil
	s.flushQueued = false
	s.sendMu.Unlock()
	if len(frames) > 0 {
		if s.u.closed.Load() {
			s.stats.SendDropped.Add(uint64(len(frames)))
		} else {
			// The writer's header arrays are single-flush state; the shard
			// loop serializes flushes, so this is uncontended there.
			s.writeMu.Lock()
			sent, dropped, segmented, bytes := s.writer.send(frames)
			s.writeMu.Unlock()
			s.stats.SendBatches.Add(1)
			s.stats.SendPackets.Add(uint64(sent))
			s.stats.SendSegmented.Add(uint64(segmented))
			s.stats.SendBytes.Add(bytes)
			if dropped > 0 {
				s.stats.SendDropped.Add(uint64(dropped))
			}
		}
		for i := range frames {
			frames[i].buf.Release()
			frames[i] = outFrame{}
		}
	}
	s.sendMu.Lock()
	s.spare = frames[:0]
	s.sendMu.Unlock()
}

// PathCount implements node.Underlay.
func (u *UDPUnderlay) PathCount(neighbor wire.NodeID) int {
	if n := len(u.table.Load().peers[neighbor].addrs); n > 0 {
		return n
	}
	return 1
}

// Close shuts the data plane down along its single quiesce path:
//
//  1. mark closed — new Sends and queued drains become no-op releases;
//  2. close the socket, which errors the read loop out of its batch
//     read;
//  3. wait for the read loop to exit, so no producer touches a handoff
//     ring or a counter afterward;
//  4. release every shard tx ring's still-coalesced frames (they never
//     reached the kernel; a queued flush observing closed would do the
//     same release).
//
// Frames already handed toward a shard loop (in a hand-off ring with a
// queued drain) are released without delivery when the drain runs —
// identical to the pre-shard contract for posted batches. Close is
// idempotent and safe to race.
func (u *UDPUnderlay) Close() error {
	u.mu.Lock()
	if u.closed.Load() {
		u.mu.Unlock()
		return nil
	}
	u.closed.Store(true)
	u.mu.Unlock()
	err := u.conn.Close()
	<-u.done
	for _, s := range u.shards {
		s.sendMu.Lock()
		frames := s.pending
		s.pending = nil
		s.sendMu.Unlock()
		for i := range frames {
			frames[i].buf.Release()
		}
		if len(frames) > 0 {
			s.stats.SendDropped.Add(uint64(len(frames)))
		}
	}
	return err
}

// readLoop drains the socket in batches until it closes, pushing each
// datagram onto its owning shard's hand-off ring and ringing doorbells
// once per touched shard per wakeup.
func (u *UDPUnderlay) readLoop() {
	defer close(u.done)
	br, err := newBatchReader(u.conn)
	if err != nil {
		// The socket cannot be read (platform refuses raw access); the
		// underlay stays up for sending only.
		return
	}
	arrival := u.shards[0]
	for {
		n, err := br.read()
		if err != nil {
			return
		}
		if n == 0 {
			continue
		}
		tbl := u.table.Load()
		var bytes uint64
		var touched uint64
		for i := 0; i < n; i++ {
			ln := br.lens[i]
			bytes += uint64(ln)
			ent, ok := tbl.senders[br.addrs[i]]
			if !ok {
				// Unknown senders are dropped: only registered overlay
				// neighbors may inject frames.
				arrival.stats.RecvUnknown.Add(1)
				continue
			}
			// The ownership rule: control to shard 0, data to the sender's
			// home.
			data := br.segment(i)[:ln]
			target := int(ent.home)
			if target != 0 && wire.DatagramIsControl(data) {
				target = 0
				arrival.stats.ControlSteers.Add(1)
			}
			// Copy the datagram out of the arena into a pooled buffer; the
			// handler borrows it on the target shard's loop, and it is
			// recycled as soon as the handler returns. The pools are safe
			// across the readLoop/executor boundary.
			buf := wire.DefaultBufPool.Get(ln)
			buf.B = append(buf.B, data...)
			touched |= 1 << uint(target)
			if !u.rings[target].Push(rxFrame{from: ent.id, buf: buf}) {
				buf.Release()
				arrival.stats.HandoffDrops.Add(1)
			}
		}
		arrival.stats.RecvBatches.Add(1)
		arrival.stats.RecvPackets.Add(uint64(n))
		arrival.stats.RecvCoalesced.Add(uint64(br.coalesced))
		arrival.stats.RecvBytes.Add(bytes)
		for t := touched; t != 0; {
			s := bits.TrailingZeros64(t)
			t &^= 1 << uint(s)
			u.rings[s].Ring()
		}
		if u.closed.Load() {
			return
		}
	}
}
