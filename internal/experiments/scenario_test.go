package experiments

import (
	"math"
	"math/rand/v2"
	"strings"
	"testing"
	"time"

	"sonet/internal/core"
	"sonet/internal/metrics"
	"sonet/internal/session"
	"sonet/internal/sim"
)

func TestCBRRateAndCount(t *testing.T) {
	sched := sim.NewScheduler(1)
	var at []time.Duration
	g := &generator{clock: sched, gap: constant(10 * time.Millisecond), burst: 1, count: 50,
		emit: func() { at = append(at, sched.Now()) }}
	g.fire()
	sched.RunFor(10 * time.Second)
	if len(at) != 50 {
		t.Fatalf("sent %d, want 50", len(at))
	}
	for i := 1; i < len(at); i++ {
		if at[i]-at[i-1] != 10*time.Millisecond {
			t.Fatalf("gap %v at %d", at[i]-at[i-1], i)
		}
	}
	if g.sent() != 50 {
		t.Fatalf("sent() = %d", g.sent())
	}
	if sched.Pending() != 0 {
		t.Fatalf("%d timers pending after the count ran out", sched.Pending())
	}
}

func TestCBRStop(t *testing.T) {
	sched := sim.NewScheduler(1)
	sent := 0
	g := &generator{clock: sched, gap: constant(10 * time.Millisecond), burst: 1, emit: func() { sent++ }}
	g.fire()
	sched.RunFor(95 * time.Millisecond)
	g.stop()
	if sched.Pending() != 0 {
		t.Fatalf("stop left %d timers pending", sched.Pending())
	}
	sched.RunFor(time.Second)
	if sent != 10 || g.sent() != 10 {
		t.Fatalf("sent %d (sent() = %d) after stop, want 10", sent, g.sent())
	}
}

func TestPoissonMeanRate(t *testing.T) {
	sched := sim.NewScheduler(1)
	var first time.Duration
	sent := 0
	g := &generator{clock: sched, gap: exponential(rand.New(rand.NewPCG(1, 2)), 10*time.Millisecond), burst: 1,
		emit: func() {
			if sent == 0 {
				first = sched.Now()
			}
			sent++
		}}
	g.arm()
	sched.RunFor(60 * time.Second)
	g.stop()
	if first == 0 {
		t.Fatal("an armed generator fired at once; the first arrival comes one gap in")
	}
	// 100 pkt/s over 60 s → ~6000, CV ~1.3%.
	if math.Abs(float64(sent)-6000) > 400 {
		t.Fatalf("sent %d, want ≈6000", sent)
	}
}

func TestBurstAttack(t *testing.T) {
	sched := sim.NewScheduler(1)
	sent := 0
	g := &generator{clock: sched, gap: constant(100 * time.Millisecond), burst: 100, emit: func() { sent++ }}
	g.fire()
	sched.RunFor(950 * time.Millisecond)
	g.stop()
	sched.RunFor(time.Second)
	if sent != 1000 {
		t.Fatalf("sent %d, want 1000 (10 bursts × 100)", sent)
	}
}

// TestGeneratorStreamsThroughSendErrors: like an IP source, a generator
// neither stops nor reports when the flow refuses a message.
func TestGeneratorStreamsThroughSendErrors(t *testing.T) {
	s := startLinks(1, []core.SimpleLink{{A: 1, B: 2, Latency: time.Millisecond}}, nil)
	defer s.Stop()
	flow := s.flow(1, session.FlowSpec{DstNode: 2, DstPort: 100})
	flow.Close()
	if err := flow.Send(nil); err == nil {
		t.Fatal("a closed flow accepted a message; the test needs a refusing flow")
	}
	stream := s.cbr(time.Millisecond, 5, nil, flow)
	s.RunFor(time.Second)
	if stream.sent() != 5 {
		t.Fatalf("sent() = %d through a refusing flow, want 5", stream.sent())
	}
}

// TestBrokenScenarioIsOneErrorFinding opens a flow toward a node the world
// does not have. The shared runner must hand that back as a single ERROR
// finding on a result whose shape does not hold, and go on to the next
// experiment.
func TestBrokenScenarioIsOneErrorFinding(t *testing.T) {
	broken := Experiment{"EXP-BROKEN", func(seed uint64) *Result {
		world := startLinks(seed, []core.SimpleLink{{A: 1, B: 2, Latency: time.Millisecond}}, nil)
		defer world.Stop()
		world.flow(1, session.FlowSpec{DstNode: 99, DstPort: 100})
		t.Error("driver ran on past the broken flow")
		return nil
	}}
	fine := Experiment{"EXP-FINE", func(uint64) *Result {
		return &Result{ID: "EXP-FINE", Table: metrics.NewTable("x"), ShapeHolds: true}
	}}
	results := runAll([]Experiment{broken, fine})
	if len(results) != 2 || results[1].ID != "EXP-FINE" || !results[1].ShapeHolds {
		t.Fatalf("the experiment after the broken one did not run: %+v", results)
	}
	r := results[0]
	if r.ID != "EXP-BROKEN" || r.ShapeHolds {
		t.Fatalf("broken scenario came back as %+v", r)
	}
	if len(r.Findings) != 1 || !strings.HasPrefix(r.Findings[0], "ERROR: ") || !strings.Contains(r.Findings[0], "n99") {
		t.Fatalf("findings = %q, want one ERROR naming n99", r.Findings)
	}
	if !strings.Contains(r.String(), "DOES NOT HOLD") {
		t.Fatalf("rendered result hides the failure:\n%s", r)
	}
}

// runAll runs the experiments of index in order, each with its default
// seed: its one-based position in the index.
func runAll(index []Experiment) []*Result {
	out := make([]*Result, len(index))
	for i, e := range index {
		out[i] = e.Run(uint64(i) + 1)
	}
	return out
}
