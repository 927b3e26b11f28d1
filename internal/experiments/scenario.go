package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"

	"sonet/internal/core"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// scenarioError is what the harness panics with when a scenario cannot be
// built: a malformed topology, a port taken twice, a flow toward a node
// the world does not have. In a seeded emulated world that is a bug in the
// driver, never an outcome of the run, so drivers do not thread it through
// their return values; Experiment.Run (experiments.go) turns it into the
// ERROR finding.
type scenarioError struct{ error }

// check panics with a scenarioError when err is set.
func check(err error) {
	if err != nil {
		panic(scenarioError{err})
	}
}

// must unwraps a constructor's (value, error) pair through check.
func must[T any](v T, err error) T {
	check(err)
	return v
}

// scenario is one started world: the overlay it runs (nodes, sessions,
// scheduler, underlay — all promoted) plus the hand-outs every driver
// needs. Drivers `defer sc.Stop()` and advance it with sc.RunFor.
type scenario struct {
	*core.Overlay
	// links is the one-fiber-per-link world behind the overlay, for
	// CutLink and SetLinkExtraLoss; nil when the driver laid the underlay
	// out by hand.
	links *core.Simple
}

// startLinks builds the world of one dedicated fiber per overlay link,
// applies the node template (nil for defaults), starts every node and lets
// the control plane settle.
func startLinks(seed uint64, links []core.SimpleLink, template func(*node.Config)) *scenario {
	s := must(core.BuildSimple(seed, links))
	sc := startOverlay(s.Overlay, template)
	sc.links = s
	return sc
}

// startOverlay starts and settles a world whose sites, providers, fibers
// and links the driver laid out itself (the multi-ISP scenarios).
func startOverlay(o *core.Overlay, template func(*node.Config)) *scenario {
	if template != nil {
		o.SetNodeTemplate(template)
	}
	check(o.Start())
	o.Settle()
	return &scenario{Overlay: o}
}

// listen connects a client at a node; port 0 asks for an ephemeral one.
func (sc *scenario) listen(at wire.NodeID, port wire.Port) *session.Client {
	m := sc.Session(at)
	if m == nil {
		panic(scenarioError{fmt.Errorf("client at %v: no such node in the world", at)})
	}
	return must(m.Connect(port))
}

// open opens a flow on an existing client. A unicast flow toward a node
// outside the world would silently deliver nothing, so it is refused here.
func (sc *scenario) open(c *session.Client, spec session.FlowSpec) *session.Flow {
	if spec.DstNode != 0 && !sc.Graph.HasNode(spec.DstNode) {
		panic(scenarioError{fmt.Errorf("flow toward %v: no such node in the world", spec.DstNode)})
	}
	return must(c.OpenFlow(spec))
}

// flow connects a fresh sending client at from and opens one flow on it.
func (sc *scenario) flow(from wire.NodeID, spec session.FlowSpec) *session.Flow {
	return sc.open(sc.listen(from, 0), spec)
}

// failSite takes the data center hosting a node off the underlay.
func (sc *scenario) failSite(n wire.NodeID) {
	if st, ok := sc.Net.NodeSite(n); ok {
		sc.Net.SetSiteUp(st, false)
	}
}

// cbr starts a constant-rate stream — broadcast video is the canonical one
// (§III-A): the first message now, then one per gap, count in all (zero:
// until stopped), each carrying payload on every one of the flows.
func (sc *scenario) cbr(gap time.Duration, count int, payload []byte, to ...*session.Flow) *generator {
	g := &generator{clock: sc.Sched, gap: constant(gap), burst: 1, count: count, emit: sendOn(payload, to)}
	g.fire()
	return g
}

// poisson starts a Poisson arrival process of the given mean gap, drawing
// from the world's seeded source — monitoring telemetry and control
// commands arrive this way (§III-B). The first message comes one gap in.
func (sc *scenario) poisson(mean time.Duration, payload []byte, to ...*session.Flow) *generator {
	g := &generator{clock: sc.Sched, gap: exponential(sc.Sched.Rand(), mean), burst: 1, emit: sendOn(payload, to)}
	g.arm()
	return g
}

// flood starts the resource-consumption attacker of §IV-B: perBurst empty
// messages now and again every period, until stopped.
func (sc *scenario) flood(period time.Duration, perBurst int, to ...*session.Flow) *generator {
	g := &generator{clock: sc.Sched, gap: constant(period), burst: perBurst, emit: sendOn(nil, to)}
	g.fire()
	return g
}

// sendOn returns the emission that sends payload on each flow. Send errors
// are dropped: like an IP source, a generator keeps streaming through
// outages and backpressure, and the receiver's count shows the loss.
func sendOn(payload []byte, flows []*session.Flow) func() {
	return func() {
		for _, f := range flows {
			_ = f.Send(payload)
		}
	}
}

// constant returns the gap function of a fixed-rate source.
func constant(gap time.Duration) func() time.Duration {
	return func() time.Duration { return gap }
}

// exponential returns the gap function of a Poisson process.
func exponential(rng *rand.Rand, mean time.Duration) func() time.Duration {
	return func() time.Duration { return time.Duration(rng.ExpFloat64() * float64(mean)) }
}

// generator is the one traffic source: every firing emits burst messages
// and re-arms itself gap() later, until count messages are out or it is
// stopped. Constant-rate, Poisson and flooding traffic differ only in gap,
// burst and whether the first firing waits one gap. It allocates nothing
// per message beyond what emit does.
type generator struct {
	clock sim.Clock
	gap   func() time.Duration
	burst int
	count int // zero: unbounded
	emit  func()

	seq     int
	stopped bool
	timer   sim.Timer
}

// fire emits one burst and arms the next.
func (g *generator) fire() {
	if g.stopped {
		return
	}
	for i := 0; i < g.burst; i++ {
		g.seq++
		g.emit()
	}
	g.arm()
}

// arm schedules the next firing unless the generator is done.
func (g *generator) arm() {
	if g.stopped || (g.count > 0 && g.seq >= g.count) {
		return
	}
	if g.timer == nil {
		g.timer = g.clock.NewTimer(g.fire)
	}
	g.timer.Reset(g.gap())
}

// stop halts the generator and cancels its pending firing.
func (g *generator) stop() {
	g.stopped = true
	if g.timer != nil {
		g.timer.Stop()
	}
}

// sent returns the number of messages emitted so far.
func (g *generator) sent() int { return g.seq }

// stopAll stops the generators and returns how many messages they sent.
func stopAll(gens []*generator) (sent int) {
	for _, g := range gens {
		g.stop()
		sent += g.sent()
	}
	return sent
}

// worstGapFrom returns the longest silence between consecutive deliveries
// (given by their virtual times) whose earlier one is at or after from:
// the outage a stream suffered once a fault was injected.
func worstGapFrom(deliveredAt []time.Duration, from time.Duration) time.Duration {
	var worst time.Duration
	for i := 1; i < len(deliveredAt); i++ {
		if deliveredAt[i-1] < from {
			continue
		}
		if gap := deliveredAt[i] - deliveredAt[i-1]; gap > worst {
			worst = gap
		}
	}
	return worst
}
