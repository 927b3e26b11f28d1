// The forwarding engine: one DataShard per event loop, and every node —
// emulated or deployed — runs at least one. Shard 0 is the control loop:
// it shares its executor with the node's control plane (link state,
// routing, groups, membership, sessions) and is the whole data path of a
// one-shard node. A sharded daemon grows shards 1..N-1 onto further
// loops; each peer is then homed on one shard by a stable hash of its
// node id (wire.HomeShard), and that shard owns the peer's data
// link-protocol endpoints — sequencing and dedup windows, ARQ and strikes
// state, the itmsg scheduling cores — so a transit frame whose next hop
// shares its arrival shard never crosses a loop. Shard 0 also keeps a
// control endpoint for every neighbor, for the link-state, group-state
// and membership payloads the underlay steers to it.
//
// Every shard runs the same code. Two things differ between them, each
// decided in one place:
//
//   - Who decides (DataShard.decide): shard 0 asks the live routing
//     engine; shards ≥ 1 ask the snapshot the engine publishes, and hand a
//     miss (nothing published yet, or a multicast tree not computed yet)
//     to shard 0 together with their dedup verdict.
//   - Where work runs: work for the loop a shard is already on is a
//     direct call; anything for another loop is one record on the bounded
//     ring the two shards share (crossing.go), its packet captured into a
//     pooled buffer the target borrows and releases. That covers control
//     payloads surfacing on a data shard (to shard 0), egress toward a
//     neighbor homed elsewhere (to its home, which owns the link session),
//     and local delivery (to shard 0, where the session level lives). A
//     full ring refuses the record: an originated packet counts the egress
//     as refused, which is backpressure when no other egress took it;
//     anything else counts Stats.DroppedCrossing.
//
// Frames themselves never cross. The underlay delivers each one on the
// shard the ownership rule names — hellos and control floods on shard 0,
// everything else on the sender's home — so a frame that reaches a data
// shard the rule did not name is counted DroppedUnknownPeer and dropped,
// like a frame from a node the shard does not know. Shard 0 serves any
// neighbor.
//
// Packets are borrowed all the way up: the delivery sink (Node.SetDeliver)
// gets the packet the link protocol handed over, valid for the call only,
// and whoever keeps it past the call captures it.
package node

import (
	"sync"
	"sync/atomic"
	"time"

	"sonet/internal/itmsg"
	"sonet/internal/link"
	"sonet/internal/metrics"
	"sonet/internal/routing"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// ShardUnderlay is the substrate a sharded data plane transmits over: an
// Underlay whose tx rings are per shard, so a shard can flush its egress
// through its own socket instead of the flow-hashed one.
type ShardUnderlay interface {
	Underlay
	// SendOn transmits like Send but coalesces on shard's tx ring.
	SendOn(shard int, neighbor wire.NodeID, path uint8, data []byte)
}

// soloUnderlay adapts a plain Underlay, which has one tx path, to
// ShardUnderlay by ignoring the shard index.
type soloUnderlay struct{ Underlay }

func (u soloUnderlay) SendOn(_ int, neighbor wire.NodeID, path uint8, data []byte) {
	u.Send(neighbor, path, data)
}

// DataPlane owns a node's shards and the state they share: the published
// routing snapshot and the duplicate-suppression table.
type DataPlane struct {
	n     *Node
	under ShardUnderlay
	// loops carries the crossing rings' drain posts and the rare control
	// closures; nil until Grow, and never used by a one-shard plane, where
	// nothing crosses.
	loops *sim.ShardedLoop

	// snap is the cell the routing engine publishes forwarding snapshots
	// into once the plane has data shards to read them.
	snap  atomic.Pointer[routing.Snapshot]
	dedup *sharedDedup
	// shards indexes the engines; entry 0 is the control shard.
	shards []*DataShard
}

// DataShard is one loop's protocol engine: link-protocol endpoints,
// decode scratch, QoS accounting sink and packet counters. All its
// methods run on its own loop.
type DataShard struct {
	n     *Node
	plane *DataPlane
	idx   int
	clock sim.Clock
	// peers and byLink hold an entry per neighbor on every shard — the
	// home lookup for egress — but only the home shard and shard 0 ever
	// instantiate endpoints in it.
	peers  wire.NodeTable[*peer]
	byLink map[wire.LinkID]*peer

	// rxFrame and rxPacket are the receive-path decode scratch: every
	// frame arriving from the underlay is decoded into them in place, so
	// the per-hop pipeline allocates nothing. They alias the arriving
	// datagram; any component that retains packet state captures it.
	rxFrame  wire.Frame
	rxPacket wire.Packet
	// fwd is the scratch a snapshot decision builds its fan-out in.
	fwd []wire.LinkID
	// turn is open from the first frame of an underlay turn (HandleInTurn)
	// to its EndTurn; owed lists, in order, the endpoints that deferred
	// their ack to its end.
	turn bool
	owed []*link.Reliable
	// out holds this shard's crossing ring toward each other shard, built
	// on first use. Only this loop stores; Close loads from the target's.
	out []atomic.Pointer[crossRing]

	stats Stats
	// sched aggregates fair-scheduler accounting across every discipline
	// instance this shard hosts (one sink, atomic counters).
	sched  *metrics.SchedStats
	itcfg  itmsg.SchedConfig
	closed bool
}

// peer is one shard's view of an adjacent overlay link.
type peer struct {
	neighbor wire.NodeID
	linkID   wire.LinkID
	latency  time.Duration
	// home is the shard owning the link's data sessions, fixed when the
	// entry is created.
	home int
	// path is the link's current underlay path, shared by the neighbor's
	// entries on every shard: the control loop's link-state machinery
	// writes it, the transmitting shard reads it.
	path *atomic.Uint32
	// protos holds the link's endpoints by service, each built on first
	// use. Slot 0 stays empty: protoFor files a packet that leaves its
	// LinkProto unset under best effort.
	protos [wire.LPITReliable + 1]link.Protocol
}

func newDataPlane(n *Node) *DataPlane {
	under, ok := n.cfg.Underlay.(ShardUnderlay)
	if !ok {
		under = soloUnderlay{n.cfg.Underlay}
	}
	pl := &DataPlane{n: n, under: under, dedup: newSharedDedup(1)}
	pl.addShard(n.clock)
	return pl
}

// addShard appends a shard on clock. Each shard makes its own
// scheduler-accounting sink, shared by every discipline instance it hosts.
func (pl *DataPlane) addShard(clock sim.Clock) {
	sink := &metrics.SchedStats{}
	s := &DataShard{
		n: pl.n, plane: pl, idx: len(pl.shards), clock: clock,
		byLink: make(map[wire.LinkID]*peer),
		sched:  sink,
		itcfg:  pl.n.cfg.ITSched,
	}
	s.itcfg.Stats = sink
	pl.shards = append(pl.shards, s)
}

// Grow shards the plane across loops: shard 0 stays on the node's own
// clock, shards 1..N-1 start on clocks[i] (all sharing the node clock's
// epoch so cross-shard timestamps compare), and the routing engine starts
// publishing snapshots for the new shards to read. Call it once, before
// any neighbor is admitted (a sharded node is built over a graph holding
// no link of its own and learns its links afterwards), before Start and
// before the underlay delivers anything.
func (pl *DataPlane) Grow(loops *sim.ShardedLoop, clocks []sim.Clock) {
	pl.loops = loops
	nshard := loops.NumShards()
	if nshard == 1 {
		return
	}
	pl.dedup = newSharedDedup(dedupStripes)
	for i := 1; i < nshard; i++ {
		pl.addShard(clocks[i])
	}
	for _, s := range pl.shards {
		s.out = make([]atomic.Pointer[crossRing], nshard)
	}
	pl.n.engine.SetPublishTarget(&pl.snap)
}

// admit registers a neighbor on every shard, homed by wire.HomeShard over
// the plane's shards — the one place a peer's home is decided, and the
// shard its underlay delivers its frames on. Runs on the control loop.
//
// The other shards learn the entry by a posted closure, not a crossing
// record: it must not be refused, and nothing orders it against records.
// A packet is routed toward the neighbor only once its link is up, a hello
// round trip after this post, and a frame or egress record that still
// beats the entry counts DroppedUnknownPeer like any unknown sender.
func (pl *DataPlane) admit(neighbor wire.NodeID, lid wire.LinkID, latency time.Duration) {
	pr := &peer{
		neighbor: neighbor, linkID: lid, latency: latency,
		home: wire.HomeShard(neighbor, len(pl.shards)),
		path: new(atomic.Uint32),
	}
	pl.shards[0].addPeer(pr)
	for _, s := range pl.shards[1:] {
		sib := pr.sibling()
		pl.loops.PostTo(s.idx, func() { s.addPeer(sib) })
	}
}

// sibling returns another shard's entry for the same neighbor.
func (pr *peer) sibling() *peer {
	sib := *pr
	clear(sib.protos[:])
	return &sib
}

func (s *DataShard) addPeer(pr *peer) {
	s.peers.Put(pr.neighbor, pr)
	s.byLink[pr.linkID] = pr
}

// NumShards returns the plane's shard count.
func (pl *DataPlane) NumShards() int { return len(pl.shards) }

// HandleUnderlay processes raw frame bytes delivered on shard's loop. The
// data buffer is borrowed for the duration of the call: the decoded frame
// aliases it, and so does everything downstream until a retention point
// clones.
func (pl *DataPlane) HandleUnderlay(shard int, from wire.NodeID, data []byte) {
	pl.shards[shard].handleUnderlay(from, data)
}

// HandleInTurn is HandleUnderlay for a frame that is part of an underlay
// turn on shard — one drain of a read batch — which the caller must close
// with EndTurn on the same loop once the turn's frames are handled. Until
// then each Reliable endpoint owes one ack for all the frames it got in
// the turn, instead of sending one per frame.
func (pl *DataPlane) HandleInTurn(shard int, from wire.NodeID, data []byte) {
	s := pl.shards[shard]
	s.turn = true
	s.handleUnderlay(from, data)
}

// EndTurn closes shard's underlay turn on its loop: every endpoint that
// deferred its ack to it acks now, the acks joining the egress this turn
// queued.
func (pl *DataPlane) EndTurn(shard int) {
	s := pl.shards[shard]
	s.turn = false
	for i, r := range s.owed {
		r.EndTurn()
		s.owed[i] = nil
	}
	s.owed = s.owed[:0]
}

// LinkStats returns the counters of the endpoints on the link to one
// neighbor on the link's home shard, read on its loop: the data
// endpoints of a sharded daemon, which Node.LinkStats (the control
// shard's) does not see. On a daemon it is safe from any goroutine but a
// shard loop's, and reads nil for a neighbor the plane does not know or
// once the loop has closed; an emulated node (one shard, no loops) is
// read in place, so call it from the node's executor.
func (pl *DataPlane) LinkStats(neighbor wire.NodeID) map[wire.LinkProtoID]link.Stats {
	var out map[wire.LinkProtoID]link.Stats
	read := func(s *DataShard) {
		if pr := s.peers.At(neighbor); pr != nil {
			out = pr.linkStats()
		}
	}
	if pl.loops == nil {
		read(pl.shards[0])
		return out
	}
	home := wire.HomeShard(neighbor, len(pl.shards))
	pl.onShards(pl.shards[home:home+1], read)
	return out
}

// SchedSnapshot merges every shard's fair-scheduler ledger. Safe from any
// goroutine (the sinks are atomic).
func (pl *DataPlane) SchedSnapshot() metrics.SchedSnapshot {
	var agg metrics.SchedSnapshot
	for _, s := range pl.shards {
		agg = agg.Merge(s.sched.Snapshot())
	}
	return agg
}

// Stats merges the packet counters of shards 1..N-1, reading each on its
// own loop (Node.Stats is shard 0's, read on the control loop). A shard
// whose loop has closed contributes zeros. Safe from any goroutine.
func (pl *DataPlane) Stats() Stats {
	var mu sync.Mutex
	var agg Stats
	pl.onShards(pl.shards[1:], func(s *DataShard) {
		mu.Lock()
		agg = agg.Merge(s.stats)
		mu.Unlock()
	})
	return agg
}

// Footprint is the state a node holds resident between packets, counted
// rather than measured: the flows its duplicate suppression tracks and,
// summed over every link-protocol endpoint, the packets held for
// retransmission and the bytes they carry. WindowBytes is every sequence
// bitmap: the endpoints' receive windows and one window per tracked flow.
// NodeTableBytes is every table the node indexes by NodeID (each a
// wire.NodeTable), by capacity: each spans the largest ID stored in it, at
// most 65 536 entries.
type Footprint struct {
	DedupEntries                              int
	HistoryPackets, HistoryBytes, WindowBytes int
	NodeTableBytes                            int
}

// Footprint counts the plane's resident state, each shard's endpoints on
// its own loop and the dedup table on shard 0's (a one-shard plane's table
// takes no lock). An emulated node (no loops) is read in place, so call it
// from the node's executor; on a daemon it is safe from any goroutine, and
// a shard whose loop has closed contributes zeros.
func (pl *DataPlane) Footprint() (fp Footprint) {
	var mu sync.Mutex
	add := func(s *DataShard) {
		mu.Lock()
		defer mu.Unlock()
		if s.idx == 0 {
			fp.DedupEntries = pl.dedup.Flows()
			fp.WindowBytes += fp.DedupEntries * dedupWindow / 8
			fp.NodeTableBytes += pl.n.tableBytes()
		}
		fp.NodeTableBytes += s.peers.Bytes()
		for _, pr := range s.peers {
			if pr == nil {
				continue
			}
			for _, p := range pr.protos {
				if p == nil {
					continue
				}
				st := p.Stats()
				fp.HistoryPackets += st.HistoryPackets
				fp.HistoryBytes += st.HistoryBytes
				fp.WindowBytes += st.WindowBytes
			}
		}
	}
	if pl.loops == nil {
		add(pl.shards[0])
	} else {
		pl.onShards(pl.shards, add)
	}
	return fp
}

// Snapshot returns the currently published forwarding snapshot: nil
// before the first publication, and always on a one-shard plane, which
// has no reader for one.
func (pl *DataPlane) Snapshot() *routing.Snapshot { return pl.snap.Load() }

// Close shuts shards 1..N-1 down on their own loops — link protocols
// close, their queued packets account as DropClosed in the shard ledger —
// and waits; then, every producer being closed, it empties the crossing
// rings on their target loops so each captured buffer goes back to the
// pool. The daemon calls it after Node.Stop, which closes shard 0, and
// before closing the loops.
func (pl *DataPlane) Close() {
	if len(pl.shards) == 1 {
		return
	}
	pl.onShards(pl.shards[1:], (*DataShard).close)
	pl.onShards(pl.shards, (*DataShard).drainInbound)
}

// onShards runs fn for each shard on its own loop and waits for those
// whose loop still takes work (a loop that has closed runs nothing).
func (pl *DataPlane) onShards(shards []*DataShard, fn func(*DataShard)) {
	done := make(chan struct{}, len(shards))
	cnt := 0
	for _, s := range shards {
		if pl.loops.TryPostTo(s.idx, func() { fn(s); done <- struct{}{} }) {
			cnt++
		}
	}
	for ; cnt > 0; cnt-- {
		<-done
	}
}

// resetPeer discards a neighbor's link-protocol endpoints after a
// control-loop link reset (down/up transition, session-epoch resync): the
// control endpoints here, the data endpoints on the home shard.
//
// The home shard's half is a posted closure, which can overtake or trail
// the crossing records around it. Either way the packet met the reset as
// it would have on the wire — sent by the old session just before, or by
// the new one just after — and that is the case the session-epoch
// handshake exists for; a record, unlike this closure, could be refused.
func (pl *DataPlane) resetPeer(neighbor wire.NodeID) {
	pr := pl.shards[0].peers.At(neighbor)
	if pr == nil {
		return
	}
	pr.closeProtos()
	if pr.home != 0 {
		s := pl.shards[pr.home]
		pl.loops.PostTo(pr.home, func() {
			if hp := s.peers.At(neighbor); hp != nil {
				hp.closeProtos()
			}
		})
	}
}

// closeProtos closes the link's endpoints in service order and forgets
// them.
func (pr *peer) closeProtos() {
	for id, p := range pr.protos {
		if p != nil {
			p.Close()
			pr.protos[id] = nil
		}
	}
}

// close shuts the shard down: protocols close and their queues drain into
// the shard's DropClosed ledger.
func (s *DataShard) close() {
	s.closed = true
	for _, pr := range s.peers {
		if pr != nil {
			pr.closeProtos()
		}
	}
}

// handleUnderlay decodes and dispatches one frame on this shard's loop.
func (s *DataShard) handleUnderlay(from wire.NodeID, data []byte) {
	cfg := &s.n.cfg
	if s.closed {
		return
	}
	f := &s.rxFrame
	if _, err := wire.UnmarshalFrameInto(f, &s.rxPacket, data); err != nil {
		s.stats.DroppedMalformed++
		return
	}
	if cfg.Keyring != nil && !cfg.Keyring.VerifyFrame(f, from) {
		s.stats.DroppedAuth++
		return
	}
	if f.Kind == wire.FHello || f.Kind == wire.FHelloAck {
		// Liveness probes belong to the control loop's link-state manager;
		// the ownership rule never names a data shard for one.
		if s.idx != 0 {
			s.stats.DroppedUnknownPeer++
			return
		}
		s.n.lsMgr.HandleControl(from, f)
		return
	}
	pr := s.peers.At(from)
	if pr == nil || s.idx != 0 && pr.home != s.idx {
		// Not a neighbor, or one homed on another shard: this shard owns no
		// link session the frame could belong to.
		s.stats.DroppedUnknownPeer++
		return
	}
	s.protoFor(pr, f.Proto).HandleFrame(f)
}

// receiveFromLink accepts a routing-level packet delivered by a link
// protocol instance.
func (s *DataShard) receiveFromLink(pr *peer, p *wire.Packet) {
	if s.closed {
		return
	}
	switch p.Type {
	case wire.PTLinkState, wire.PTGroupState, wire.PTMembership:
		s.control(pr.neighbor, p)
	case wire.PTData, wire.PTSessionCtl:
		s.handleData(p, pr.linkID)
	}
}

// control hands a control payload to the control-plane managers, which
// are single-threaded on shard 0.
func (s *DataShard) control(from wire.NodeID, p *wire.Packet) {
	if s.idx != 0 {
		if !s.cross(0, crossing{kind: crossControl, neighbor: from}, p) {
			s.stats.DroppedCrossing++
		}
		return
	}
	s.n.handleControl(from, p)
}

// handleData routes a data packet arriving on link arrived, applying
// compromise behaviour before authentication and routing.
func (s *DataShard) handleData(p *wire.Packet, arrived wire.LinkID) {
	c := &s.n.cfg.Compromised
	if c.DropData {
		s.stats.Blackholed++
		return
	}
	if c.DelayData > 0 {
		cp := p.Clone()
		s.clock.After(c.DelayData, func() {
			if !s.closed {
				s.routeAuthed(cp, arrived)
			}
		})
		return
	}
	s.routeAuthed(p, arrived)
}

func (s *DataShard) routeAuthed(p *wire.Packet, arrived wire.LinkID) {
	if s.n.requiresSignature(p) && !s.n.cfg.Keyring.VerifyPacket(p) {
		s.stats.DroppedAuth++
		return
	}
	// A corrupting compromised node tampers after its own (honest-looking)
	// verification, forwarding copies that downstream signature checks
	// will reject.
	if s.n.cfg.Compromised.CorruptData && len(p.Payload) > 0 {
		p = p.Clone()
		p.Payload[0] ^= 0xff
	}
	s.route(p, arrived)
}

// route runs duplicate suppression — flood, mask and multicast copies are
// judged against the table every shard shares; unicast skips it — and
// forwards on the verdict. The result is forward's.
//
// An origination is judged first and recorded only once a copy has left:
// one that every egress refused leaves no trace in the table, so the
// session can send its retry under the same number.
func (s *DataShard) route(p *wire.Packet, arrived wire.LinkID) bool {
	if p.Route == wire.RouteLinkState {
		return s.forward(p, arrived, true)
	}
	f, seq, origin := flow{p.Src, p.Dst, p.SrcPort, p.DstPort, p.Group}, p.FlowSeq, arrived == routing.NoLink
	firstSeen := s.plane.dedup.Observe(f, seq, !origin)
	refused := s.forward(p, arrived, firstSeen)
	if origin && !refused {
		s.plane.dedup.Observe(f, seq, true)
	}
	if !firstSeen {
		s.stats.Duplicates++
	}
	return refused
}

// decide returns the routing decision for p, and false when this shard
// cannot make it. Shard 0 runs on the control loop and asks the live
// engine, which always answers; the other shards ask the published
// snapshot.
func (s *DataShard) decide(p *wire.Packet, arrived wire.LinkID, firstSeen bool) (routing.Decision, bool) {
	if s.idx == 0 {
		return s.n.engine.Decide(p, arrived, firstSeen), true
	}
	snap := s.plane.snap.Load()
	if snap == nil {
		return routing.Decision{}, false
	}
	d, ok := snap.Decide(p, arrived, firstSeen, s.fwd)
	if d.Forward != nil {
		s.fwd = d.Forward
	}
	return d, ok
}

// forward applies the routing decision: per-link forwarding with TTL
// accounting, then local delivery. Forwarding runs first because the
// decision's Forward slice is scratch and local delivery can re-enter the
// engine (session code may synchronously originate packets).
//
// It reports backpressure: true when the packet was locally originated
// (arrived == NoLink), had egress links, every one of them refused it,
// and it was not delivered locally. Origination probes disciplines via
// link.TrySender so the refusal is observable, and a full crossing ring
// toward the egress link's home shard is a refusal too; transit forwarding
// always uses Send, keeping the paper's silent-drop semantics on the relay
// fast path.
func (s *DataShard) forward(p *wire.Packet, arrived wire.LinkID, firstSeen bool) bool {
	d, ok := s.decide(p, arrived, firstSeen)
	if !ok {
		// The control shard decides, on this shard's dedup verdict, and
		// republishes whatever it computed so the flow's next packets stay
		// on their arrival shards.
		if !s.cross(0, crossing{kind: crossHandoff, arrived: arrived, firstSeen: firstSeen}, p) {
			s.stats.DroppedCrossing++
		}
		return false
	}
	if d.DeliverLocal {
		s.stats.DeliveredLocal++
	}
	origination := arrived == routing.NoLink
	sent, refused := 0, 0
	if len(d.Forward) == 0 {
		if !d.DeliverLocal && firstSeen {
			s.stats.DroppedNoRoute++
		}
	} else if p.TTL <= 1 {
		s.stats.DroppedTTL++
	} else {
		// One in-place decrement covers the whole fan-out: signatures
		// exclude TTL, and every protocol that retains the packet captures
		// it, so the borrowed p can feed all egress links.
		p.TTL--
		for _, lid := range d.Forward {
			pr, ok := s.byLink[lid]
			if !ok {
				s.stats.DroppedUnknownPeer++
				continue
			}
			if pr.home != s.idx {
				// The egress link session lives on the neighbor's home
				// shard, which counts the hop and applies its own drop
				// semantics; a record the ring took counts as sent here.
				switch {
				case s.cross(pr.home, crossing{kind: crossEgress, neighbor: pr.neighbor}, p):
					sent++
				case origination:
					refused++
				default:
					s.stats.DroppedCrossing++
				}
				continue
			}
			proto := s.protoFor(pr, p.LinkProto)
			if ts, ok := proto.(link.TrySender); ok && origination {
				if ts.TrySend(p) != nil {
					refused++
					continue
				}
			} else {
				proto.Send(p)
			}
			sent++
			s.stats.Forwarded++
		}
	}
	if d.DeliverLocal {
		s.deliverLocal(p)
	}
	return refused > 0 && sent == 0 && !d.DeliverLocal
}

// deliverLocal hands a packet to the session level, which lives on the
// control loop and borrows it: the fan-out above is done with p (every
// protocol that keeps a packet captured it), so the packet that arrived
// is the one delivered, its TTL already decremented if it was forwarded.
func (s *DataShard) deliverLocal(p *wire.Packet) {
	if s.idx != 0 {
		if !s.cross(0, crossing{kind: crossDeliver}, p) {
			s.stats.DroppedCrossing++
		}
		return
	}
	if !s.closed {
		s.n.deliver(p)
	}
}

// egress transmits a packet another shard handed over, on the link
// session this shard owns.
func (s *DataShard) egress(neighbor wire.NodeID, p *wire.Packet) {
	pr := s.peers.At(neighbor)
	if pr == nil {
		s.stats.DroppedUnknownPeer++
		return
	}
	s.stats.Forwarded++
	s.protoFor(pr, p.LinkProto).Send(p)
}

// protoFor lazily instantiates this shard's link protocol endpoint for
// one neighbor link, on the shard's clock and scheduler sink. A LinkProto
// of zero, which control packets leave unset, is best effort; one above
// wire.LPITReliable never gets this far (the wire decoders and
// session.Client.OpenFlow refuse it).
func (s *DataShard) protoFor(pr *peer, id wire.LinkProtoID) link.Protocol {
	if id == 0 {
		id = wire.LPBestEffort
	}
	if p := pr.protos[id]; p != nil {
		return p
	}
	cfg := &s.n.cfg
	env := &linkEnv{s: s, peer: pr, proto: id}
	var p link.Protocol
	switch id {
	case wire.LPReliable:
		p = link.NewReliable(env, cfg.Reliable)
	case wire.LPRealTime, wire.LPSingleStrike:
		sc := cfg.Strikes
		if id == wire.LPSingleStrike {
			sc = cfg.SingleStrike
			sc.N, sc.M = 1, 1
		}
		if sc.RTT <= 0 {
			sc.RTT = 2 * pr.latency
		}
		p = link.NewStrikes(env, sc)
	case wire.LPITPriority:
		p = itmsg.NewPriorityLink(env, s.itcfg)
	case wire.LPITReliable:
		p = itmsg.NewReliableFairLink(env, s.itcfg, cfg.Reliable)
	default:
		p = link.NewBestEffort(env)
	}
	pr.protos[id] = p
	return p
}

var _ link.TurnHost = (*linkEnv)(nil)

// linkEnv adapts a shard to link.Env for one neighbor.
type linkEnv struct {
	s    *DataShard
	peer *peer
	// proto is the service the endpoint was built for. Every frame leaves
	// badged with it, whichever link protocol implements the service
	// underneath: single-strike is NM-Strikes with N = M = 1, the IT
	// services are a fair queue over best effort and over the reliable
	// link.
	proto wire.LinkProtoID
}

func (e *linkEnv) Clock() sim.Clock { return e.s.clock }

func (e *linkEnv) Transmit(f *wire.Frame) {
	f.Proto = e.proto
	e.s.transmitFrame(e.peer, f)
}

func (e *linkEnv) Deliver(p *wire.Packet) { e.s.receiveFromLink(e.peer, p) }

// Defer implements link.TurnHost: inside an underlay turn the endpoint
// joins the shard's owed list, and acks at EndTurn.
func (e *linkEnv) Defer(r *link.Reliable) bool {
	if !e.s.turn {
		return false
	}
	e.s.owed = append(e.s.owed, r)
	return true
}

// transmitFrame MACs (when authenticated), marshals, and sends a frame to
// a neighbor out this shard's tx ring over the link's current underlay
// path.
func (s *DataShard) transmitFrame(pr *peer, f *wire.Frame) {
	if kr := s.n.cfg.Keyring; kr != nil {
		if err := kr.MacFrame(f, pr.neighbor); err != nil {
			return
		}
	}
	buf := wire.DefaultBufPool.Get(f.MarshaledSize())
	b, err := f.AppendMarshal(buf.B)
	if err != nil {
		buf.Release()
		return
	}
	buf.B = b
	// The underlay borrows the bytes: the emulator copies them into its own
	// pooled delivery buffer and the UDP transport writes synchronously.
	s.plane.under.SendOn(s.idx, pr.neighbor, uint8(pr.path.Load()), buf.B)
	buf.Release()
}

// Merge returns the field-wise sum of two Stats; the daemon aggregates
// per-shard counters with it.
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		Originated:         s.Originated + o.Originated,
		Forwarded:          s.Forwarded + o.Forwarded,
		DeliveredLocal:     s.DeliveredLocal + o.DeliveredLocal,
		Duplicates:         s.Duplicates + o.Duplicates,
		DroppedTTL:         s.DroppedTTL + o.DroppedTTL,
		DroppedNoRoute:     s.DroppedNoRoute + o.DroppedNoRoute,
		DroppedAuth:        s.DroppedAuth + o.DroppedAuth,
		DroppedUnknownPeer: s.DroppedUnknownPeer + o.DroppedUnknownPeer,
		DroppedCrossing:    s.DroppedCrossing + o.DroppedCrossing,
		DroppedMalformed:   s.DroppedMalformed + o.DroppedMalformed,
		Blackholed:         s.Blackholed + o.Blackholed,
	}
}
