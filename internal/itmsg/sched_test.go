package itmsg

import (
	"testing"
	"time"

	"sonet/internal/link"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// schedEnv is a one-directional test environment: frames transmitted by
// the protocol under test are delivered to a peer protocol after latency.
type schedEnv struct {
	sched     *sim.Scheduler
	latency   time.Duration
	peer      link.Protocol
	drop      func(*wire.Frame) bool
	delivered []*wire.Packet
	deliverAt []time.Duration
}

func (e *schedEnv) Clock() sim.Clock { return e.sched }

func (e *schedEnv) Transmit(f *wire.Frame) {
	buf, err := f.Marshal()
	if err != nil {
		panic(err)
	}
	if e.drop != nil && e.drop(f) {
		return
	}
	e.sched.After(e.latency, func() {
		g, _, err := wire.UnmarshalFrame(buf)
		if err != nil {
			panic(err)
		}
		if e.peer != nil {
			e.peer.HandleFrame(g)
		}
	})
}

func (e *schedEnv) Deliver(p *wire.Packet) {
	e.delivered = append(e.delivered, p)
	e.deliverAt = append(e.deliverAt, e.sched.Now())
}

func srcPacket(src wire.NodeID, seq uint32, prio uint8) *wire.Packet {
	return &wire.Packet{
		Type: wire.PTData, Route: wire.RouteFlood,
		Src: src, FlowSeq: seq, Priority: prio,
		Payload: []byte{byte(seq)},
	}
}

func flowPacket(src, dst wire.NodeID, seq uint32) *wire.Packet {
	return &wire.Packet{
		Type: wire.PTData, Route: wire.RouteLinkState,
		Src: src, Dst: dst, FlowSeq: seq,
		Payload: []byte{byte(seq)},
	}
}

func countBySrc(pkts []*wire.Packet) map[wire.NodeID]int {
	out := make(map[wire.NodeID]int)
	for _, p := range pkts {
		out[p.Src]++
	}
	return out
}

func newPriorityPair(sched *sim.Scheduler, cfg SchedConfig) (*Link, *schedEnv, *schedEnv) {
	sendEnv := &schedEnv{sched: sched, latency: 10 * time.Millisecond}
	recvEnv := &schedEnv{sched: sched, latency: 10 * time.Millisecond}
	sender := NewPriorityLink(sendEnv, cfg)
	receiver := NewPriorityLink(recvEnv, cfg)
	sendEnv.peer = receiver
	recvEnv.peer = sender
	return sender, sendEnv, recvEnv
}

func TestPriorityLinkPacesAtRate(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, recvEnv := newPriorityPair(sched, SchedConfig{Rate: 100})
	for i := uint32(1); i <= 10; i++ {
		sender.Send(srcPacket(1, i, 0))
	}
	sched.RunFor(time.Second)
	if len(recvEnv.delivered) != 10 {
		t.Fatalf("delivered %d, want 10", len(recvEnv.delivered))
	}
	// 100 pkt/s → 10 ms apart.
	for i := 1; i < len(recvEnv.deliverAt); i++ {
		gap := recvEnv.deliverAt[i] - recvEnv.deliverAt[i-1]
		if gap != 10*time.Millisecond {
			t.Fatalf("delivery gap %v at %d, want 10ms pacing", gap, i)
		}
	}
}

// floodAndTrickle drives a continuous attacker flood (well above link
// capacity) alongside a trickle of honest messages, returning the honest
// delivery count and mean honest queueing latency.
func floodAndTrickle(sched *sim.Scheduler, sender *Link, recvEnv *schedEnv) (honest int, meanLatency time.Duration) {
	stop := false
	var flood func()
	flood = func() {
		if stop {
			return
		}
		for i := 0; i < 100; i++ {
			sender.Send(srcPacket(66, 0, 0))
		}
		sched.After(100*time.Millisecond, flood)
	}
	sched.After(0, flood)
	for i := uint32(1); i <= 20; i++ {
		i := i
		sched.After(time.Duration(i)*50*time.Millisecond, func() {
			p := srcPacket(1, i, 0)
			p.Origin = sched.Now()
			sender.Send(p)
		})
	}
	sched.RunFor(5 * time.Second)
	stop = true
	var sum time.Duration
	for i, p := range recvEnv.delivered {
		if p.Src != 1 {
			continue
		}
		honest++
		sum += recvEnv.deliverAt[i] - p.Origin
	}
	if honest > 0 {
		meanLatency = sum / time.Duration(honest)
	}
	return honest, meanLatency
}

func TestPriorityFairnessUnderFlood(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, recvEnv := newPriorityPair(sched, SchedConfig{Rate: 100, BufferPerSource: 64})
	honest, lat := floodAndTrickle(sched, sender, recvEnv)
	// Round-robin: every honest message gets through promptly — the
	// attacker only consumes its own share of the link.
	if honest != 20 {
		t.Fatalf("honest source delivered %d/20 under flood", honest)
	}
	if lat > 100*time.Millisecond {
		t.Fatalf("honest latency %v under fairness, want prompt service", lat)
	}
}

func TestPriorityFIFOBaselineStarvesHonest(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := SchedConfig{Rate: 100, DisableFairness: true, TotalBuffer: 256}
	sender, _, recvEnv := newPriorityPair(sched, cfg)
	honest, lat := floodAndTrickle(sched, sender, recvEnv)
	// FIFO: honest traffic is either dropped at the full shared queue or
	// queued behind seconds of attacker backlog.
	if honest == 20 && lat < time.Second {
		t.Fatalf("FIFO baseline served honest traffic promptly (%d delivered, %v); expected starvation", honest, lat)
	}
}

func TestPriorityEvictionKeepsHighPriority(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, recvEnv := newPriorityPair(sched, SchedConfig{Rate: 1000, BufferPerSource: 4})
	// Stall pacing by filling before any transmission: enqueue 4 low then
	// 1 high; the high message must survive, evicting the oldest low.
	sender.Send(srcPacket(1, 1, 1))
	sender.Send(srcPacket(1, 2, 1))
	sender.Send(srcPacket(1, 3, 1))
	sender.Send(srcPacket(1, 4, 1))
	sender.Send(srcPacket(1, 5, 9)) // high priority
	if sender.refused != 1 {
		t.Fatalf("Evicted = %d, want 1", sender.refused)
	}
	sched.RunFor(time.Second)
	seqs := make(map[uint32]bool)
	var first uint32
	for i, p := range recvEnv.delivered {
		seqs[p.FlowSeq] = true
		if i == 0 {
			first = p.FlowSeq
		}
	}
	if seqs[1] {
		t.Fatal("oldest low-priority message survived eviction")
	}
	if !seqs[5] {
		t.Fatal("high-priority message lost")
	}
	// Highest priority transmits first.
	if first != 5 {
		t.Fatalf("first delivered = seq %d, want high-priority 5", first)
	}
}

func TestPriorityLowerNewcomerDropped(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, _ := newPriorityPair(sched, SchedConfig{Rate: 1000, BufferPerSource: 2})
	sender.Send(srcPacket(1, 1, 5))
	sender.Send(srcPacket(1, 2, 5))
	sender.Send(srcPacket(1, 3, 1)) // lower priority than everything stored
	if queued(sender.core, FlowKey{Src: 1}) != 2 {
		t.Fatalf("queue depth %d, want 2", queued(sender.core, FlowKey{Src: 1}))
	}
	if sender.refused != 1 {
		t.Fatalf("Evicted = %d, want 1 (the newcomer)", sender.refused)
	}
}

func TestPriorityRoundRobinOrder(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, recvEnv := newPriorityPair(sched, SchedConfig{Rate: 1000, BufferPerSource: 16})
	for i := uint32(1); i <= 3; i++ {
		sender.Send(srcPacket(10, i, 0))
		sender.Send(srcPacket(20, i, 0))
		sender.Send(srcPacket(30, i, 0))
	}
	sched.RunFor(time.Second)
	if len(recvEnv.delivered) != 9 {
		t.Fatalf("delivered %d, want 9", len(recvEnv.delivered))
	}
	// Perfect interleaving: each consecutive triple contains all three
	// sources.
	for i := 0; i+2 < len(recvEnv.delivered); i += 3 {
		seen := map[wire.NodeID]bool{}
		for j := i; j < i+3; j++ {
			seen[recvEnv.delivered[j].Src] = true
		}
		if len(seen) != 3 {
			t.Fatalf("window %d not fairly interleaved: %v", i, countBySrc(recvEnv.delivered))
		}
	}
}

func TestPriorityCloseStopsPacing(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, recvEnv := newPriorityPair(sched, SchedConfig{Rate: 10})
	for i := uint32(1); i <= 10; i++ {
		sender.Send(srcPacket(1, i, 0))
	}
	sched.RunFor(250 * time.Millisecond) // ~2 transmitted
	sender.Close()
	sched.RunFor(5 * time.Second)
	if len(recvEnv.delivered) > 3 {
		t.Fatalf("delivered %d after Close", len(recvEnv.delivered))
	}
}

func newReliableFairPair(sched *sim.Scheduler, cfg SchedConfig) (*Link, *Link, *schedEnv, *schedEnv) {
	sendEnv := &schedEnv{sched: sched, latency: 10 * time.Millisecond}
	recvEnv := &schedEnv{sched: sched, latency: 10 * time.Millisecond}
	rel := link.ReliableConfig{}
	sender := NewReliableFairLink(sendEnv, cfg, rel)
	receiver := NewReliableFairLink(recvEnv, cfg, rel)
	sendEnv.peer = receiver
	recvEnv.peer = sender
	return sender, receiver, sendEnv, recvEnv
}

func TestReliableFairDeliversThroughLoss(t *testing.T) {
	sched := sim.NewScheduler(2)
	sender, _, sendEnv, recvEnv := newReliableFairPair(sched, SchedConfig{Rate: 500, BufferPerSource: 128})
	n := 0
	sendEnv.drop = func(f *wire.Frame) bool {
		if f.Kind != wire.FData {
			return false
		}
		n++
		return n%7 == 0
	}
	for i := uint32(1); i <= 100; i++ {
		sender.Send(flowPacket(1, 9, i))
	}
	sched.RunFor(30 * time.Second)
	if len(recvEnv.delivered) != 100 {
		t.Fatalf("delivered %d, want 100 (ARQ under fairness)", len(recvEnv.delivered))
	}
	if sender.Stats().Retransmissions == 0 {
		t.Fatal("no retransmissions despite forced loss")
	}
}

func TestReliableFairBackpressurePerFlow(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, _, recvEnv := newReliableFairPair(sched, SchedConfig{Rate: 100, BufferPerSource: 8})
	flood := FlowKey{Src: 66, Dst: 9}
	honest := FlowKey{Src: 1, Dst: 9}
	for i := uint32(1); i <= 500; i++ {
		sender.Send(flowPacket(66, 9, i))
	}
	if !full(sender.core, flood) {
		t.Fatal("saturated flow still accepted")
	}
	if full(sender.core, honest) {
		t.Fatal("backpressure on one flow blocked another")
	}
	if sender.refused != 500-8 {
		t.Fatalf("Rejected = %d, want 492", sender.refused)
	}
	for i := uint32(1); i <= 8; i++ {
		sender.Send(flowPacket(1, 9, i))
	}
	sched.RunFor(5 * time.Second)
	got := countBySrc(recvEnv.delivered)
	if got[1] != 8 {
		t.Fatalf("honest flow delivered %d/8 under flood", got[1])
	}
	if got[66] != 8 {
		t.Fatalf("flooding flow delivered %d, want its buffered 8", got[66])
	}
}

func TestReliableFairRoundRobinBetweenFlows(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, _, recvEnv := newReliableFairPair(sched, SchedConfig{Rate: 1000, BufferPerSource: 64})
	for i := uint32(1); i <= 10; i++ {
		sender.Send(flowPacket(1, 9, i))
		sender.Send(flowPacket(2, 9, i))
	}
	sched.RunFor(time.Second)
	if len(recvEnv.delivered) != 20 {
		t.Fatalf("delivered %d, want 20", len(recvEnv.delivered))
	}
	// Fairness: after any even prefix the two flows differ by at most 1.
	c1, c2 := 0, 0
	for _, p := range recvEnv.delivered {
		if p.Src == 1 {
			c1++
		} else {
			c2++
		}
		diff := c1 - c2
		if diff < -1 || diff > 1 {
			t.Fatalf("flows unbalanced mid-stream: %d vs %d", c1, c2)
		}
	}
}

func TestReliableFairFIFOBaseline(t *testing.T) {
	sched := sim.NewScheduler(1)
	cfg := SchedConfig{Rate: 100, DisableFairness: true, TotalBuffer: 64}
	sender, _, _, recvEnv := newReliableFairPair(sched, cfg)
	for i := uint32(1); i <= 200; i++ {
		sender.Send(flowPacket(66, 9, i))
	}
	for i := uint32(1); i <= 10; i++ {
		sender.Send(flowPacket(1, 9, i))
	}
	sched.RunFor(5 * time.Second)
	got := countBySrc(recvEnv.delivered)
	if got[1] != 0 {
		t.Fatalf("FIFO baseline delivered %d honest packets; queue was full of attacker traffic", got[1])
	}
}

func TestPriorityOrderWithinSourceAcrossPriorities(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, recvEnv := newPriorityPair(sched, SchedConfig{Rate: 1000, BufferPerSource: 16})
	// One source enqueues a mix of priorities before pacing starts.
	sender.Send(srcPacket(1, 1, 2))
	sender.Send(srcPacket(1, 2, 9))
	sender.Send(srcPacket(1, 3, 2))
	sender.Send(srcPacket(1, 4, 9))
	sched.RunFor(time.Second)
	var got []uint32
	for _, p := range recvEnv.delivered {
		got = append(got, p.FlowSeq)
	}
	// Highest priority first, oldest first within a priority.
	want := []uint32{2, 4, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}

func TestReliableFairAcceptsRecoversAfterDrain(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, _, _ := newReliableFairPair(sched, SchedConfig{Rate: 1000, BufferPerSource: 4})
	key := FlowKey{Src: 1, Dst: 9}
	for i := uint32(1); i <= 4; i++ {
		sender.Send(flowPacket(1, 9, i))
	}
	if !full(sender.core, key) {
		t.Fatal("full flow still accepted")
	}
	sched.RunFor(time.Second) // pacer drains the queue
	if full(sender.core, key) {
		t.Fatal("backpressure did not release after drain")
	}
	if queued(sender.core, key) != 0 {
		t.Fatalf("queue depth %d after drain", queued(sender.core, key))
	}
}

func TestReliableFairCloseStopsPacing(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, _, recvEnv := newReliableFairPair(sched, SchedConfig{Rate: 10, BufferPerSource: 64})
	for i := uint32(1); i <= 10; i++ {
		sender.Send(flowPacket(1, 9, i))
	}
	sched.RunFor(250 * time.Millisecond)
	sender.Close()
	sched.RunFor(10 * time.Second)
	if len(recvEnv.delivered) > 3 {
		t.Fatalf("delivered %d after Close", len(recvEnv.delivered))
	}
}

func TestPriorityLinkIgnoresControlFrames(t *testing.T) {
	sched := sim.NewScheduler(1)
	sender, _, _ := newPriorityPair(sched, SchedConfig{Rate: 1000})
	sender.HandleFrame(&wire.Frame{Proto: wire.LPITPriority, Kind: wire.FAck})
	sender.HandleFrame(&wire.Frame{Proto: wire.LPITPriority, Kind: wire.FData}) // nil packet
	if sender.Stats().Delivered != 0 {
		t.Fatal("control/empty frames delivered")
	}
}
