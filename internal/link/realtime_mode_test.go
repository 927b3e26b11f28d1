package link

import (
	"sync"
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// rtPipe connects two protocol endpoints over real wall-clock time: the
// same state machines the simulator drives, on a sim.Loop executor with a
// RealtimeClock — the configuration deployed daemons run.
type rtPipe struct {
	loop    *sim.Loop
	clock   *sim.RealtimeClock
	latency time.Duration

	mu   sync.Mutex
	a, b Protocol
	drop func(*wire.Frame) bool

	deliveredB []*wire.Packet
}

func (p *rtPipe) Clock() sim.Clock { return p.clock }

// endA and endB adapt each direction to Env.
type rtEnd struct {
	p    *rtPipe
	isA  bool
	name string
}

func (e *rtEnd) Clock() sim.Clock { return e.p.clock }

func (e *rtEnd) Transmit(f *wire.Frame) {
	buf, err := f.Marshal()
	if err != nil {
		panic(err)
	}
	e.p.mu.Lock()
	drop := e.p.drop != nil && e.p.drop(f)
	e.p.mu.Unlock()
	if drop {
		return
	}
	isA := e.isA
	e.p.clock.After(e.p.latency, func() {
		g, _, err := wire.UnmarshalFrame(buf)
		if err != nil {
			panic(err)
		}
		e.p.mu.Lock()
		var peer Protocol
		if isA {
			peer = e.p.b
		} else {
			peer = e.p.a
		}
		e.p.mu.Unlock()
		if peer != nil {
			peer.HandleFrame(g)
		}
	})
}

func (e *rtEnd) Deliver(pk *wire.Packet) {
	if !e.isA {
		e.p.mu.Lock()
		e.p.deliveredB = append(e.p.deliveredB, pk)
		e.p.mu.Unlock()
	}
}

// deliveredToB returns how many packets endpoint B delivered so far.
func (p *rtPipe) deliveredToB() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.deliveredB)
}

// await polls cond until it holds, failing the test if it does not within
// a few seconds. Realtime tests wait on conditions, never for a fixed time.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestStrikesOverRealtimeClock drives NM-Strikes on the wall clock: a
// dropped packet must be recovered by a strike the link's timer sends,
// proving the protocol code is clock-implementation agnostic. The budget
// is long enough that a loaded host cannot make the copy late; what is
// asserted is how many requests it took, never when they left.
func TestStrikesOverRealtimeClock(t *testing.T) {
	loop := sim.NewLoop()
	defer loop.Close()
	p := &rtPipe{
		loop:    loop,
		clock:   sim.NewRealtimeClock(loop),
		latency: 2 * time.Millisecond,
	}
	cfg := StrikesConfig{N: 3, M: 2, Budget: 3 * time.Second, RTT: 4 * time.Millisecond}
	p.a = NewStrikes(&rtEnd{p: p, isA: true}, cfg)
	p.b = NewStrikes(&rtEnd{p: p, isA: false}, cfg)
	dropped := false
	p.drop = func(f *wire.Frame) bool {
		if f.Kind == wire.FData && f.Seq == 2 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	for seq := uint32(1); seq <= 3; seq++ {
		// seq 2 is dropped in flight; seq 3 reveals the gap.
		loop.Post(func() { p.a.Send(dataPacket(seq)) })
	}
	await(t, "3 packets delivered over the realtime clock", func() bool { return p.deliveredToB() == 3 })
	stats := make(chan Stats, 1)
	loop.Post(func() { stats <- p.b.Stats() })
	if st := <-stats; st.Requests < 1 || st.Requests > uint64(cfg.N) {
		t.Fatalf("%d strike requests for one loss, want 1 to N=%d", st.Requests, cfg.N)
	}
}

// TestReliableOverRealtimeClock drives the Reliable Data Link on the wall
// clock through a lossy period.
func TestReliableOverRealtimeClock(t *testing.T) {
	loop := sim.NewLoop()
	defer loop.Close()
	p := &rtPipe{
		loop:    loop,
		clock:   sim.NewRealtimeClock(loop),
		latency: time.Millisecond,
	}
	cfg := ReliableConfig{RTOInit: 20 * time.Millisecond, ReqInterval: 10 * time.Millisecond}
	p.a = NewReliable(&rtEnd{p: p, isA: true}, cfg)
	p.b = NewReliable(&rtEnd{p: p, isA: false}, cfg)
	n := 0
	p.drop = func(f *wire.Frame) bool {
		if f.Kind != wire.FData {
			return false
		}
		n++
		return n%4 == 0 // drop every 4th data frame
	}
	const total = 40
	for i := uint32(1); i <= total; i++ {
		loop.Post(func() { p.a.Send(dataPacket(i)) })
	}
	await(t, "every packet delivered over the realtime clock", func() bool { return p.deliveredToB() == total })
}
