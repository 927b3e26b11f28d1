//go:build sonet_layers

package main

import (
	"fmt"
	"reflect"
	"time"

	"sonet"
	"sonet/internal/node"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/transport"
	"sonet/internal/wire"
)

// tracedRelay is node 2 of the chain in the traced run: the same node
// software and UDP underlay a daemon runs, assembled here from their
// public constructors so that every boundary between them passes through
// a wrapper of the harness's own and leaves a span — the event-loop turn,
// the underlay handler, each underlay send. It runs one shard: the
// node is single-threaded on the relay's loop, which is also the only
// goroutine that touches the lane.
type tracedRelay struct {
	loop *sim.Loop
	udp  *transport.UDPUnderlay
	node *node.Node
	lane *lane
}

// spanExec wraps the relay's event loop: every posted closure or runner
// runs inside a span named after what was posted, so rx batches, tx
// flushes and timers are told apart.
type spanExec struct {
	inner *sim.Loop
	lane  *lane
	names map[reflect.Type]string
}

func (e *spanExec) Post(fn func()) {
	e.inner.Post(func() {
		sp := e.lane.open("loop.turn", 0)
		fn()
		e.lane.close(sp)
	})
}

func (e *spanExec) PostRunner(r sim.Runner) {
	e.inner.Post(func() {
		// names is only read and written here, on the loop goroutine.
		t := reflect.TypeOf(r)
		name, ok := e.names[t]
		if !ok {
			name = "loop.turn " + t.String()
			e.names[t] = name
		}
		sp := e.lane.open(name, 0)
		r.Run()
		e.lane.close(sp)
	})
}

// spanUnderlay wraps the node's view of the underlay: each Send is a
// child span of the handler that caused it.
type spanUnderlay struct {
	inner *transport.UDPUnderlay
	lane  *lane
}

func (u *spanUnderlay) Send(neighbor wire.NodeID, path uint8, data []byte) {
	sp := u.lane.open("transport.send", 0)
	u.inner.Send(neighbor, path, data)
	u.lane.close(sp)
}

func (u *spanUnderlay) PathCount(neighbor wire.NodeID) int { return u.inner.PathCount(neighbor) }

func newTracedRelay(cfg sonet.DaemonConfig, epoch time.Time, messages int) (*tracedRelay, error) {
	g := topology.NewGraph()
	for _, l := range cfg.Links {
		if _, err := g.AddLink(l.A, l.B, l.Latency); err != nil {
			return nil, err
		}
	}
	// A message leaves four or five spans here: a share of an rx turn and
	// of a flush turn, its handler, its send.
	r := &tracedRelay{loop: sim.NewLoop(), lane: newLane("relay", epoch, 5*messages)}
	exec := &spanExec{inner: r.loop, lane: r.lane, names: make(map[reflect.Type]string)}
	var started *node.Node // assigned on the loop, like transport.NewDaemon does
	var rxf wire.Frame
	var rxp wire.Packet
	udp, err := transport.NewUDPUnderlay(cfg.BindUDP, exec, func(from wire.NodeID, data []byte) {
		if started == nil {
			return
		}
		// The message id is decoded before the span opens, so the extra
		// decode the trace needs is not charged to the node.
		var msg uint64
		if _, err := wire.UnmarshalFrameInto(&rxf, &rxp, data); err == nil && rxf.Kind == wire.FData &&
			rxf.Packet != nil && rxf.Packet.Type == wire.PTData && len(rxf.Packet.Payload) >= payloadMin {
			p := rxf.Packet.Payload
			msg = msgID(uint16(p[0])<<8|uint16(p[1]), uint32(p[2])<<24|uint32(p[3])<<16|uint32(p[4])<<8|uint32(p[5]))
		}
		sp := r.lane.open("node.handle", msg)
		started.HandleUnderlay(from, data)
		r.lane.close(sp)
	})
	if err != nil {
		r.loop.Close()
		return nil, err
	}
	r.udp = udp
	ncfg := node.Config{
		ID:       cfg.ID,
		Clock:    sim.NewRealtimeClockAt(exec, epoch),
		Underlay: &spanUnderlay{inner: udp, lane: r.lane},
		Graph:    g,
	}
	ncfg.LinkState.HelloInterval = cfg.HelloInterval
	n, err := node.New(ncfg)
	if err != nil {
		_ = udp.Close()
		r.loop.Close()
		return nil, err
	}
	r.node = n
	n.SetDeliver(func(*wire.Packet) {
		sp := r.lane.open("node.deliver", 0)
		r.lane.close(sp)
	})
	r.onLoop(func() {
		started = n
		n.Start()
	})
	return r, nil
}

// onLoop runs fn on the relay's loop and waits for it.
func (r *tracedRelay) onLoop(fn func()) {
	done := make(chan struct{})
	r.loop.Post(func() {
		fn()
		close(done)
	})
	<-done
}

func (r *tracedRelay) UDPAddr() string { return r.udp.LocalAddr() }

func (r *tracedRelay) AddPeer(id sonet.NodeID, addrs ...string) error {
	return r.udp.AddPeer(id, addrs...)
}

func (r *tracedRelay) Close() {
	r.onLoop(r.node.Stop)
	_ = r.udp.Close()
	r.loop.Close()
}

// tallyInto adds the relay's own counters to t, reading the node's on
// its loop.
func (r *tracedRelay) tallyInto(t tally) {
	r.onLoop(func() {
		t.addNode(r.node.Stats())
		t.addLinkState(r.node.LinkStateManager().Stats())
		g := r.node.View().G
		for _, lid := range g.Incident(r.node.ID()) {
			if l, ok := g.Link(lid); ok {
				nb, _ := l.Other(r.node.ID())
				for _, st := range r.node.LinkStats(nb) {
					t.addLink(st)
				}
			}
		}
	})
	t.addWire(r.udp.Stats())
	t.addSched(r.node.SchedStats())
}

var _ chainNode = (*tracedRelay)(nil)

func relayHook(dst **tracedRelay) func(sonet.DaemonConfig, time.Time, int) (chainNode, error) {
	return func(cfg sonet.DaemonConfig, epoch time.Time, messages int) (chainNode, error) {
		r, err := newTracedRelay(cfg, epoch, messages)
		if err != nil {
			return nil, fmt.Errorf("traced relay: %w", err)
		}
		*dst = r
		return r, nil
	}
}
