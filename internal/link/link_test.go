package link

import (
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// pipe wires two protocol endpoints through a latency/loss channel,
// marshaling every frame through the wire encoding.
type pipe struct {
	sched *sim.Scheduler
	a, b  *pipeEnd
}

type pipeEnd struct {
	sched   *sim.Scheduler
	peer    *pipeEnd
	latency time.Duration
	drop    func(f *wire.Frame) bool
	// impair, when set, decides what becomes of a frame drop let through:
	// it returns the extra delay of each copy to deliver, so none loses
	// the frame and two duplicate it.
	impair    func(f *wire.Frame) []time.Duration
	proto     Protocol
	delivered []*wire.Packet
	sentWire  int
}

func newPipe(sched *sim.Scheduler, latency time.Duration) *pipe {
	p := &pipe{sched: sched}
	p.a = &pipeEnd{sched: sched, latency: latency}
	p.b = &pipeEnd{sched: sched, latency: latency}
	p.a.peer = p.b
	p.b.peer = p.a
	return p
}

func (e *pipeEnd) Clock() sim.Clock { return e.sched }

func (e *pipeEnd) Transmit(f *wire.Frame) {
	e.sentWire++
	buf, err := f.Marshal()
	if err != nil {
		panic(err)
	}
	if e.drop != nil && e.drop(f) {
		return
	}
	if e.impair == nil {
		e.arrive(buf, e.latency)
		return
	}
	for _, extra := range e.impair(f) {
		e.arrive(buf, e.latency+extra)
	}
}

// arrive hands the peer a copy of the marshaled frame d from now.
func (e *pipeEnd) arrive(buf []byte, d time.Duration) {
	e.sched.After(d, func() {
		g, _, err := wire.UnmarshalFrame(buf)
		if err != nil {
			panic(err)
		}
		if e.peer.proto != nil {
			e.peer.proto.HandleFrame(g)
		}
	})
}

// Deliver keeps a copy: the link lends the packet for the call.
func (e *pipeEnd) Deliver(p *wire.Packet) {
	e.delivered = append(e.delivered, p.Clone())
}

func dataPacket(seq uint32) *wire.Packet {
	return &wire.Packet{
		Type:    wire.PTData,
		Route:   wire.RouteLinkState,
		Src:     1,
		Dst:     2,
		FlowSeq: seq,
		Payload: []byte{byte(seq), byte(seq >> 8)},
	}
}

func deliveredSeqs(end *pipeEnd) []uint32 {
	out := make([]uint32, 0, len(end.delivered))
	for _, p := range end.delivered {
		out = append(out, p.FlowSeq)
	}
	return out
}

// --- BestEffort ---

func TestBestEffortDelivers(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := newPipe(sched, 10*time.Millisecond)
	p.a.proto = NewBestEffort(p.a)
	p.b.proto = NewBestEffort(p.b)
	for i := uint32(1); i <= 10; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.Run()
	if len(p.b.delivered) != 10 {
		t.Fatalf("delivered %d, want 10", len(p.b.delivered))
	}
	st := p.a.proto.Stats()
	if st.DataSent != 10 || st.Retransmissions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBestEffortNoRecovery(t *testing.T) {
	sched := sim.NewScheduler(1)
	p := newPipe(sched, 10*time.Millisecond)
	n := 0
	p.a.drop = func(f *wire.Frame) bool {
		n++
		return n%5 == 0 // drop every 5th frame
	}
	p.a.proto = NewBestEffort(p.a)
	p.b.proto = NewBestEffort(p.b)
	for i := uint32(1); i <= 100; i++ {
		p.a.proto.Send(dataPacket(i))
	}
	sched.Run()
	if len(p.b.delivered) != 80 {
		t.Fatalf("delivered %d, want 80 (no recovery)", len(p.b.delivered))
	}
}
