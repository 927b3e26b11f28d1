//go:build sonet_layers

package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"sonet"
	"sonet/internal/groups"
	"sonet/internal/itmsg"
	"sonet/internal/link"
	"sonet/internal/membership"
	"sonet/internal/netemu"
	"sonet/internal/node"
	"sonet/internal/routing"
	"sonet/internal/session"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/transport"
	"sonet/internal/wire"
)

// ladderSpec is what the ladder takes from a workload: its payload size,
// the link protocol its main flows ride, its designed graph, and whether
// its frames cross real sockets or the emulator.
type ladderSpec struct {
	payload  int
	proto    wire.LinkProtoID
	links    []sonet.Link
	src, dst wire.NodeID
	sockets  bool
}

func ladderFor(name string) ladderSpec {
	chain := []sonet.Link{{A: 1, B: 2, Latency: time.Millisecond}, {A: 2, B: 3, Latency: time.Millisecond}}
	switch name {
	case "chain3-video-be":
		return ladderSpec{payload: 1200, proto: wire.LPBestEffort, links: chain, src: 1, dst: 3, sockets: true}
	case "chain3-small-reliable":
		return ladderSpec{payload: 64, proto: wire.LPReliable, links: chain, src: 1, dst: 3, sockets: true}
	case "emu-mixed-loss":
		return ladderSpec{payload: 1200, proto: wire.LPRealTime, links: continentalLinks(), src: nyc, dst: lax}
	default:
		return ladderSpec{payload: 200, proto: wire.LPReliable, links: churnLinks(), src: 1, dst: 33}
	}
}

func (s ladderSpec) graph() (*topology.Graph, error) {
	g := topology.NewGraph()
	for _, l := range s.links {
		if _, err := g.AddLink(l.A, l.B, l.Latency); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// frame returns a data frame of the workload's size addressed from src to
// dst, as node `from`'s neighbour would put it on the wire.
func (s ladderSpec) frame(proto wire.LinkProtoID, seq uint32) *wire.Frame {
	return &wire.Frame{
		Proto: proto, Kind: wire.FData, Seq: seq,
		Packet: &wire.Packet{
			Type: wire.PTData, Route: wire.RouteLinkState, LinkProto: proto, TTL: 32,
			Src: s.src, Dst: s.dst, DstPort: recvPort, FlowSeq: seq,
			Payload: make([]byte, s.payload),
		},
	}
}

// timeOp runs op n times after n/10 warm-up calls and returns ns per call.
func timeOp(n int, op func(i int)) float64 {
	for i := 0; i < n/10+1; i++ {
		op(i)
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// nullUnderlay swallows transmissions: it isolates the node stack's cost.
type nullUnderlay struct{ sent int }

func (u *nullUnderlay) Send(wire.NodeID, uint8, []byte) { u.sent++ }
func (u *nullUnderlay) PathCount(wire.NodeID) int       { return 1 }

// runLadder times calls into each layer's public functions on the
// workload's own frames, graph and payload size. Every rung is a few
// hundred thousand calls at most, so the whole ladder takes about a
// second.
func runLadder(s ladderSpec, res *Result) error {
	g, err := s.graph()
	if err != nil {
		return err
	}

	// wire: pooled marshal, zero-copy unmarshal.
	f := s.frame(s.proto, 1)
	var encoded []byte
	res.set("wire.marshal_ns", timeOp(200000, func(int) {
		buf := wire.DefaultBufPool.Get(f.MarshaledSize())
		out, err := f.AppendMarshal(buf.B)
		if err != nil {
			panic(err)
		}
		encoded = append(encoded[:0], out...)
		buf.Release()
	}))
	var rxf wire.Frame
	var rxp wire.Packet
	res.set("wire.unmarshal_ns", timeOp(200000, func(int) {
		if _, err := wire.UnmarshalFrameInto(&rxf, &rxp, encoded); err != nil {
			panic(err)
		}
	}))

	// transport: one loopback UDP hop, windows of 32 like an event-loop turn.
	res.set("transport.udp_hop_ns", 0)
	if s.sockets {
		ns, err := ladderUDPHop(encoded)
		if err != nil {
			return err
		}
		res.set("transport.udp_hop_ns", ns)
	}

	// node: the middle of the src→dst route forwards a best-effort frame
	// (decode, route, TTL, re-encode) into a null underlay. Best effort
	// keeps the link level stateless here; the reliable rung prices that.
	view := topology.NewView(g)
	path := topology.ShortestPaths(view, s.src, topology.LatencyMetric).Path(s.dst)
	if len(path) < 3 {
		return fmt.Errorf("ladder: route %v→%v has no transit node", s.src, s.dst)
	}
	under := &nullUnderlay{}
	mid, err := node.New(node.Config{ID: path[1], Clock: sim.NewScheduler(1), Underlay: under, Graph: g})
	if err != nil {
		return err
	}
	beBytes, err := s.frame(wire.LPBestEffort, 1).Marshal()
	if err != nil {
		return err
	}
	res.set("node.transit_ns", timeOp(200000, func(int) { mid.HandleUnderlay(path[0], beBytes) }))
	if under.sent == 0 {
		return fmt.Errorf("ladder: transit node forwarded nothing")
	}

	// session: Flow.Send at the source over a null underlay, on the
	// workload's own link protocol (2000 sends stay inside the reliable
	// window, so nothing queues behind missing acks).
	g2, _ := s.graph()
	srcNode, err := node.New(node.Config{ID: s.src, Clock: sim.NewScheduler(1), Underlay: &nullUnderlay{}, Graph: g2})
	if err != nil {
		return err
	}
	cl, err := session.NewManager(srcNode).Connect(0)
	if err != nil {
		return err
	}
	flow, err := cl.OpenFlow(session.FlowSpec{DstNode: s.dst, DstPort: recvPort, LinkProto: s.proto})
	if err != nil {
		return err
	}
	payload := make([]byte, s.payload)
	res.set("session.send_ns", timeOp(1800, func(int) {
		if err := flow.Send(payload); err != nil {
			panic(err)
		}
	}))

	// link: one Reliable send → data → ack cycle between two endpoints
	// joined in memory.
	res.set("link.reliable_cycle_ns", ladderReliableCycle(s))

	// itmsg: one DRR decision with 64 flows backlogged.
	core := itmsg.NewCore(itmsg.CoreConfig{FlowBuffer: 4})
	var ip wire.Packet
	ip.Type, ip.Route = wire.PTData, wire.RouteLinkState
	for i := 0; i < 64; i++ {
		k := itmsg.FlowKey{Src: wire.NodeID(i + 1), Dst: s.dst}
		ip.Src, ip.Dst = k.Src, k.Dst
		core.Enqueue(k, &ip)
		core.Enqueue(k, &ip)
	}
	res.set("itmsg.decision_ns", timeOp(200000, func(int) {
		p, _, ok := core.Dequeue(0)
		if !ok {
			panic("itmsg core idle with backlog")
		}
		core.Enqueue(itmsg.FlowKey{Src: p.Src, Dst: p.Dst}, p)
	}))

	// routing: one unicast decision against a converged engine.
	views := &fixedView{view: view}
	eng := routing.NewEngine(path[1], views, noGroups{}, topology.LatencyMetric)
	rp := s.frame(s.proto, 1).Packet
	res.set("routing.decide_ns", timeOp(200000, func(int) {
		if d := eng.Decide(rp, routing.NoLink, true); len(d.Forward) == 0 {
			panic("routing: no decision")
		}
	}))

	// topology: full SPF, and single-link repair flipping every link of the
	// graph in turn — tree edges and non-tree edges as the graph has them.
	var spt topology.SPT
	res.set("topology.spf_full_ns", timeOp(20000, func(int) {
		topology.SPTInto(&spt, view, s.src, topology.LatencyMetric)
	}))
	nl := g.NumLinks()
	res.set("topology.spf_repair_ns", timeOp(20000-20000%(2*nl), func(i int) {
		lid := wire.LinkID((i / 2) % nl)
		view.SetUp(lid, i%2 == 1)
		if !topology.SPTRepair(&spt, view, lid, topology.LatencyMetric) {
			topology.SPTInto(&spt, view, s.src, topology.LatencyMetric)
		}
	}))
	for i := 0; i < nl; i++ {
		view.SetUp(wire.LinkID(i), true)
	}

	// groups: state floods one node originates per join or leave.
	ge := &countingGroupEnv{}
	gm := groups.NewManager(ge, s.src)
	const groupEvents = 1000
	for i := 0; i < groupEvents/2; i++ {
		gm.Join(7)
		gm.Leave(7)
	}
	res.set("groups.floods_per_event", float64(ge.floods)/groupEvents)

	// membership: one steady-state detector sweep over the whole graph.
	me := &quietMemberEnv{clock: sim.NewScheduler(1)}
	for _, lid := range g.Incident(s.src) {
		if l, ok := g.Link(lid); ok {
			nb, _ := l.Other(s.src)
			me.nbrs = append(me.nbrs, nb)
		}
	}
	mm := membership.NewManager(me, s.src, membership.Config{Seed: g.Nodes()})
	mm.SetView(topology.NewView(g))
	mm.SetOnReconcile(func() int { return 0 })
	res.set("membership.sweep_ns", timeOp(20000, func(int) { mm.Sweep() }))

	// netemu and sim: one emulated one-fibre send with its delivery event,
	// and one schedule-and-fire timer.
	res.set("netemu.send_ns", 0)
	if !s.sockets {
		ns, err := ladderNetemuSend(s)
		if err != nil {
			return err
		}
		res.set("netemu.send_ns", ns)
	}
	sched := sim.NewScheduler(1)
	fired := 0
	res.set("sim.timer_ns", timeOp(200000, func(i int) {
		sched.After(time.Millisecond, func() { fired++ })
		if i%64 == 63 {
			sched.RunFor(time.Millisecond)
		}
	}))
	return nil
}

// ladderUDPHop pushes marshaled frames through a loopback
// transport.NewUDPUnderlay pair in windows of 32 (send, flush in one turn,
// wait for the receiver) and returns wall ns per frame.
func ladderUDPHop(frame []byte) (float64, error) {
	var got atomic.Int64
	wake := make(chan struct{}, 1) // one pending wake-up is enough
	rx, err := transport.NewUDPUnderlay("127.0.0.1:0", inlineExec{}, func(wire.NodeID, []byte) {
		got.Add(1)
		select {
		case wake <- struct{}{}:
		default:
		}
	})
	if err != nil {
		return 0, err
	}
	defer rx.Close()
	turns := &turnExec{}
	tx, err := transport.NewUDPUnderlay("127.0.0.1:0", turns, func(wire.NodeID, []byte) {})
	if err != nil {
		return 0, err
	}
	defer func() {
		_ = tx.Close()
		turns.turn()
	}()
	if err := rx.AddPeer(1, tx.LocalAddr()); err != nil {
		return 0, err
	}
	if err := tx.AddPeer(2, rx.LocalAddr()); err != nil {
		return 0, err
	}
	const window, frames = 32, 32 * 1500
	var sent int64
	var stalled error
	pump := func(n int) {
		for i := 0; i < n && stalled == nil; i += window {
			for j := 0; j < window; j++ {
				tx.Send(2, 0, frame)
			}
			turns.turn()
			sent += window
			deadline := time.After(2 * time.Second)
			for got.Load() < sent && stalled == nil {
				select {
				case <-wake:
				case <-deadline:
					stalled = fmt.Errorf("ladder: udp hop stalled at %d of %d", got.Load(), sent)
				}
			}
		}
	}
	pump(frames / 10)
	start := time.Now()
	pump(frames)
	return float64(time.Since(start).Nanoseconds()) / frames, stalled
}

type inlineExec struct{}

func (inlineExec) Post(fn func()) { fn() }

// turnExec queues posted closures until the sender ends its turn, the way
// an event loop flushes once per batch. Only the pumping goroutine posts.
type turnExec struct{ q []func() }

func (t *turnExec) Post(fn func()) { t.q = append(t.q, fn) }

func (t *turnExec) turn() {
	for i, fn := range t.q {
		fn()
		t.q[i] = nil
	}
	t.q = t.q[:0]
}

// memEnv is one end of an in-memory link: Transmit copies the borrowed
// frame onto the peer's inbox, Deliver counts.
type memEnv struct {
	clock     sim.Clock
	peer      *memEnv
	inbox     []wire.Frame
	pkts      []wire.Packet
	delivered int
}

func (e *memEnv) Clock() sim.Clock { return e.clock }

func (e *memEnv) Transmit(f *wire.Frame) {
	cp := *f
	if f.Packet != nil {
		e.peer.pkts = append(e.peer.pkts, *f.Packet)
		cp.Packet = &e.peer.pkts[len(e.peer.pkts)-1]
	}
	e.peer.inbox = append(e.peer.inbox, cp)
}

func (e *memEnv) Deliver(*wire.Packet) { e.delivered++ }

// drain hands the inbox to the endpoint and reports whether it held any.
func (e *memEnv) drain(p link.Protocol) bool {
	if len(e.inbox) == 0 {
		return false
	}
	// Frames point into pkts, so both are reset only after the handlers ran.
	for i := range e.inbox {
		p.HandleFrame(&e.inbox[i])
	}
	e.inbox, e.pkts = e.inbox[:0], e.pkts[:0]
	return true
}

func ladderReliableCycle(s ladderSpec) float64 {
	clock := sim.NewScheduler(1)
	ea, eb := &memEnv{clock: clock}, &memEnv{clock: clock}
	ea.peer, eb.peer = eb, ea
	// pkts must not reallocate while inbox frames point into it.
	ea.pkts, eb.pkts = make([]wire.Packet, 0, 8), make([]wire.Packet, 0, 8)
	a, b := link.NewReliable(ea, link.ReliableConfig{}), link.NewReliable(eb, link.ReliableConfig{})
	defer a.Close()
	defer b.Close()
	p := s.frame(wire.LPReliable, 0).Packet
	ns := timeOp(100000, func(i int) {
		p.FlowSeq = uint32(i)
		a.Send(p)
		for eb.drain(b) || ea.drain(a) {
		}
	})
	if eb.delivered == 0 || a.OutstandingFrames() != 0 {
		panic(fmt.Sprintf("ladder: reliable cycle delivered %d, %d unacked", eb.delivered, a.OutstandingFrames()))
	}
	return ns
}

// ladderNetemuSend sends the workload's payload over the first link of
// its graph, one provider per fibre as sonet.New builds worlds, and runs
// the delivery event.
func ladderNetemuSend(s ladderSpec) (float64, error) {
	sched := sim.NewScheduler(1)
	net := netemu.New(sched, netemu.DefaultConfig())
	l := s.links[0]
	sa, sb := net.AddSite("a"), net.AddSite("b")
	isp := net.AddISP("isp")
	if _, err := net.AddFiber(isp, sa, sb, l.Latency, l.Jitter, nil); err != nil {
		return 0, err
	}
	delivered := 0
	for id, st := range map[wire.NodeID]netemu.SiteID{l.A: sa, l.B: sb} {
		if err := net.AttachNode(id, st, func(wire.NodeID, []byte) { delivered++ }); err != nil {
			return 0, err
		}
	}
	payload := make([]byte, s.payload)
	ns := timeOp(200000, func(int) {
		net.Send(l.A, l.B, isp, payload)
		sched.Run()
	})
	if delivered == 0 {
		return 0, fmt.Errorf("ladder: netemu delivered nothing")
	}
	return ns, nil
}

type fixedView struct{ view *topology.View }

func (f *fixedView) View() *topology.View { return f.view }
func (f *fixedView) Version() uint64      { return 0 }

type noGroups struct{}

func (noGroups) Members(wire.GroupID) []wire.NodeID { return nil }
func (noGroups) LocalMember(wire.GroupID) bool      { return false }
func (noGroups) Version() uint64                    { return 0 }

type countingGroupEnv struct{ floods int }

func (e *countingGroupEnv) FloodGroupState([]byte, wire.NodeID) { e.floods++ }
func (e *countingGroupEnv) SendGroupState(wire.NodeID, []byte)  {}
func (e *countingGroupEnv) GroupsChanged()                      {}

type quietMemberEnv struct {
	clock sim.Clock
	nbrs  []wire.NodeID
}

func (e *quietMemberEnv) Clock() sim.Clock          { return e.clock }
func (e *quietMemberEnv) Flood([]byte, wire.NodeID) {}
func (e *quietMemberEnv) Send(wire.NodeID, []byte)  {}
func (e *quietMemberEnv) Neighbors() []wire.NodeID  { return e.nbrs }
