package link

import (
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// lossRound is the unit a loss budget measures: 50 messages, one of them
// lost and recovered. A budget of 0 allocations per round is 0 per message.
const lossRound = 50

// lossClock is one clock a loss budget runs on. run executes a round on the
// clock's executor and returns when it is done: inline on the scheduler,
// whose virtual time the round advances with tick, and posted to the loop
// for the realtime clock, whose timers fire there between rounds as wall
// time passes (tick does nothing).
type lossClock struct {
	name  string
	clock sim.Clock
	tick  func(time.Duration)
	run   func(round func())
}

func lossClocks(t *testing.T) []lossClock {
	sched := sim.NewScheduler(1)
	loop := sim.NewLoop()
	t.Cleanup(loop.Close)
	done := make(chan struct{})
	var round func()
	onLoop := func() {
		round()
		done <- struct{}{}
	}
	return []lossClock{
		{"scheduler", sched, func(d time.Duration) { sched.RunFor(d) }, func(r func()) { r() }},
		{"realtime", sim.NewRealtimeClock(loop), func(time.Duration) {}, func(r func()) {
			round = r
			loop.Post(onLoop)
			<-done
		}},
	}
}

// lostOnce reports whether f is the first transmission of the data frame
// lost in each round.
func lostOnce(f *wire.Frame) bool {
	return f.Kind == wire.FData && f.Seq%lossRound == lossRound/2 && !f.Packet.Flags.Has(wire.FRetrans)
}

// TestStrikesLossAllocBudget pins NM-Strikes' steady state under loss at
// zero allocations (`make bench-guard`): the receiver puts the gap on its
// one recovery schedule and requests it, the sender answers from the
// history slot's own timer, and the receiver later skips the recovered gap
// and gives nothing up — on both clocks.
func TestStrikesLossAllocBudget(t *testing.T) {
	for _, c := range lossClocks(t) {
		t.Run(c.name, func(t *testing.T) {
			// A 256-packet history starts at its bound and never grows.
			cfg := StrikesConfig{N: 3, M: 2, Budget: 8 * time.Millisecond, RTT: 2 * time.Millisecond, HistoryLimit: seqRingFloor}
			a, b := &directEnd{clock: c.clock, drop: lostOnce}, &directEnd{clock: c.clock}
			tx, rx := NewStrikes(a, cfg), NewStrikes(b, cfg)
			a.peer, b.peer = rx, tx
			p := dataPacket(1)
			p.Payload = make([]byte, 1200)
			round := func() {
				for i := 0; i < lossRound; i++ {
					tx.Send(p)
					c.tick(100 * time.Microsecond)
				}
			}
			for i := 0; i < 200; i++ {
				c.run(round) // past every budget and history horizon
			}
			if avg := testing.AllocsPerRun(300, func() { c.run(round) }); avg != 0 {
				t.Fatalf("a round of %d messages with one loss allocates %.2f times, budget is 0", lossRound, avg)
			}
			c.run(func() {
				c.tick(time.Second)
				tx.Close()
				rx.Close()
			})
			// Every loss is requested at once. On the realtime clock a copy
			// leaves when the loop next runs the clock's timers, which can
			// be after later rounds evicted it, so only virtual time
			// promises every loss back.
			const rounds = 200 + 300 + 1
			st := rx.Stats()
			_, virtual := c.clock.(*sim.Scheduler)
			if st.Requests < rounds || tx.Stats().Retransmissions == 0 || virtual && st.Delivered != rounds*lossRound {
				t.Fatalf("%d requests, %d retransmissions and %d delivered of %d sent in %d rounds",
					st.Requests, tx.Stats().Retransmissions, st.Delivered, tx.Stats().DataSent, rounds)
			}
		})
	}
}

// TestReliableLossAllocBudget pins the Reliable link's steady state under
// loss at zero allocations (`make bench-guard`): the arrival past the gap
// puts it on the link's one recovery schedule with its first request, the
// retransmission recovers it and the schedule later drops it — on both
// clocks.
func TestReliableLossAllocBudget(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	for _, c := range lossClocks(t) {
		t.Run(c.name, func(t *testing.T) {
			a, b := memPair(c.clock, ReliableConfig{ReqInterval: time.Millisecond, MaxReqs: 3})
			a.drop = lostOnce
			p := dataPacket(1)
			p.Payload = make([]byte, 64)
			round := func() {
				for i := 0; i < lossRound; i++ {
					a.proto.Send(p)
					b.handleInbox() // data in; ack and, past a gap, a request out
					a.handleInbox() // ack in, the request answered
					b.handleInbox() // the retransmission in
					a.handleInbox()
					c.tick(100 * time.Microsecond)
				}
			}
			for i := 0; i < 200; i++ {
				c.run(round)
			}
			if avg := testing.AllocsPerRun(300, func() { c.run(round) }); avg != 0 {
				t.Fatalf("a round of %d messages with one loss allocates %.2f times, budget is 0", lossRound, avg)
			}
			var st Stats
			c.run(func() {
				st = b.proto.Stats()
				a.proto.Close()
				b.proto.Close()
			})
			const rounds = 200 + 300 + 1
			if st.Requests < rounds || b.delivered != rounds*lossRound {
				t.Fatalf("%d requests and %d delivered of %d sent in %d rounds", st.Requests, b.delivered, rounds*lossRound, rounds)
			}
		})
	}
}
