package experiments

import (
	"fmt"
	"time"

	"sonet/internal/core"
	"sonet/internal/linkstate"
	"sonet/internal/metrics"
	"sonet/internal/netemu"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// rerouteOutcome is one mechanism's measured outage.
type rerouteOutcome struct {
	outage time.Duration
	lost   int
}

// rerouteOverlay measures the delivery gap a 100 pkt/s stream suffers
// when the fiber under its primary overlay link is cut, for a given hello
// interval, on the standard diamond without the slow chord.
func rerouteOverlay(seed uint64, hello time.Duration) rerouteOutcome {
	ms := time.Millisecond
	diamond := []core.SimpleLink{
		{A: 1, B: 2, Latency: 10 * ms},
		{A: 2, B: 4, Latency: 10 * ms},
		{A: 1, B: 3, Latency: 12 * ms},
		{A: 3, B: 4, Latency: 12 * ms},
	}
	s := startLinks(seed, diamond, func(cfg *node.Config) {
		cfg.LinkState = linkstate.Config{HelloInterval: hello}
	})
	defer s.Stop()
	return runRerouteStream(s, 4, func() { check(s.links.CutLink(1, 2)) })
}

// rerouteBGP measures the same cut when only native IP rerouting exists:
// the two endpoints share one overlay link whose ISP has an alternate
// fiber path, so recovery waits for the provider's 40 s convergence
// (§II-A). It also returns the underlay route-cache counters: the cut and
// its convergence event are the only epoch bumps, so the ~6000-packet
// stream must be served almost entirely from cache.
func rerouteBGP(seed uint64) (rerouteOutcome, netemu.RouteCacheStats) {
	o := core.New(seed, netemu.DefaultConfig())
	a := o.AddSite("A")
	b := o.AddSite("B")
	c := o.AddSite("C")
	isp := o.AddISP("isp-1")
	direct := must(o.AddFiber(isp, a, b, 10*time.Millisecond, 0, nil))
	must(o.AddFiber(isp, a, c, 15*time.Millisecond, 0, nil))
	must(o.AddFiber(isp, c, b, 15*time.Millisecond, 0, nil))
	o.AddNode(1, a)
	o.AddNode(2, b)
	must(o.AddLink(1, 2, 10*time.Millisecond, isp))
	// Hellos must not declare the link down during IP convergence — the
	// "native" behaviour keeps waiting for BGP, so probe slowly and
	// tolerantly.
	s := startOverlay(o, func(cfg *node.Config) {
		cfg.LinkState = linkstate.Config{
			HelloInterval: 2 * time.Second,
			HelloMiss:     1 << 30,
		}
	})
	defer s.Stop()
	out := runRerouteStream(s, 2, func() { s.Net.CutFiber(direct) })
	return out, s.Net.RouteCacheStats()
}

// runRerouteStream drives the stream from node 1 to dst, injects the
// failure at t+5s, and returns the worst post-failure delivery gap and the
// packet deficit.
func runRerouteStream(s *scenario, dst wire.NodeID, inject func()) rerouteOutcome {
	var deliveredAt []time.Duration
	s.listen(dst, 100).OnDeliver(func(session.Delivery) {
		deliveredAt = append(deliveredAt, s.Now())
	})
	flow := s.flow(1, session.FlowSpec{
		DstNode: dst, DstPort: 100, LinkProto: wire.LPBestEffort,
	})
	stream := s.cbr(10*time.Millisecond, 6000, nil, flow) // 60 s at 100 pkt/s
	cutAt := s.Now() + 5*time.Second
	s.Sched.At(cutAt, inject)
	s.RunFor(62 * time.Second)
	return rerouteOutcome{
		outage: worstGapFrom(deliveredAt, cutAt),
		lost:   stream.sent() - len(deliveredAt),
	}
}

// Reroute reproduces the §II-A claim: the overlay routes around failures
// at sub-second timescales by exploiting its shared global state, versus
// the 40 seconds BGP may take to converge. Hello interval sweeps show the
// detection-time knob.
func Reroute(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-REROUTE",
		Title: "Sub-second overlay rerouting vs BGP convergence",
		PaperClaim: "the overlay reroutes around problems at a sub-second scale, " +
			"in contrast to the 40 seconds to minutes BGP may take",
		Table: metrics.NewTable("mechanism", "outage", "packets_lost"),
	}
	intervals := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 500 * time.Millisecond,
	}
	var atDefault rerouteOutcome
	for i, hello := range intervals {
		out := rerouteOverlay(seed+uint64(i), hello)
		if hello == 100*time.Millisecond {
			atDefault = out
		}
		r.Table.AddRow(fmt.Sprintf("overlay, hello=%v", hello), out.outage, out.lost)
	}
	bgp, cache := rerouteBGP(seed + 50)
	r.Table.AddRow("native IP (BGP 40s convergence)", bgp.outage, bgp.lost)

	r.addFinding("overlay outage %.0fms (hello=100ms) vs native %.1fs — %.0fx faster recovery",
		ms(atDefault.outage), bgp.outage.Seconds(),
		float64(bgp.outage)/float64(nonzero(atDefault.outage)))
	r.addFinding("underlay route cache (BGP world): %.1f%% hit ratio (%d hits, %d misses, %d invalidations)",
		100*cache.HitRatio(), cache.Hits, cache.Misses, cache.Invalidations)
	r.ShapeHolds = atDefault.outage < time.Second && bgp.outage > 30*time.Second &&
		cache.HitRatio() > 0.99
	return r
}
