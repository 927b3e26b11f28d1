package experiments

import (
	"time"

	"sonet/internal/core"
	"sonet/internal/metrics"
	"sonet/internal/netemu"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// multihomeRun measures stream loss across a 10 s degradation of ISP 1
// (total outage or partial brown-out), with the overlay link served by
// the given providers.
func multihomeRun(seed uint64, dual bool, severity float64) (lost int, outage time.Duration, failovers uint64) {
	o := core.New(seed, netemu.DefaultConfig())
	a := o.AddSite("A")
	b := o.AddSite("B")
	isp1 := o.AddISP("isp-1")
	isp2 := o.AddISP("isp-2")
	must(o.AddFiber(isp1, a, b, 10*time.Millisecond, 0, nil))
	must(o.AddFiber(isp2, a, b, 11*time.Millisecond, 0, nil))
	isps := []netemu.ISPID{isp1}
	if dual {
		isps = append(isps, isp2)
	}
	o.AddNode(1, a)
	o.AddNode(2, b)
	must(o.AddLink(1, 2, 10*time.Millisecond, isps...))
	s := startOverlay(o, nil)
	defer s.Stop()

	var deliveredAt []time.Duration
	s.listen(2, 100).OnDeliver(func(session.Delivery) { deliveredAt = append(deliveredAt, s.Now()) })
	flow := s.flow(1, session.FlowSpec{DstNode: 2, DstPort: 100, LinkProto: wire.LPBestEffort})
	stream := s.cbr(10*time.Millisecond, 3000, nil, flow) // 30 s at 100 pkt/s
	// ISP-1 degradation from t=5s to t=15s.
	failAt := s.Now() + 5*time.Second
	s.Sched.At(failAt, func() { s.Net.SetISPExtraLoss(isp1, severity) })
	s.Sched.After(15*time.Second, func() { s.Net.SetISPExtraLoss(isp1, 0) })
	s.RunFor(35 * time.Second)

	return stream.sent() - len(deliveredAt), worstGapFrom(deliveredAt, failAt),
		s.Node(1).LinkStateManager().Stats().Failovers
}

// Multihoming reproduces the §II-A multihoming claim: connecting each
// overlay node to multiple ISP backbones lets the overlay route around
// problems affecting a single provider by re-homing the link, without any
// Internet-level rerouting.
func Multihoming(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-MULTIHOME",
		Title: "Single- vs dual-homed overlay link through a 10s ISP outage",
		PaperClaim: "multihoming allows the overlay to route around problems " +
			"affecting a single provider",
		Table: metrics.NewTable("homing", "packets_lost", "worst_gap", "failovers"),
	}
	singleLost, singleGap, _ := multihomeRun(seed, false, 1.0)
	r.Table.AddRow("single ISP, total outage", singleLost, singleGap, 0)
	dualLost, dualGap, failovers := multihomeRun(seed, true, 1.0)
	r.Table.AddRow("dual ISP, total outage", dualLost, dualGap, failovers)

	// Partial brown-out: 30% loss on ISP 1 — hellos mostly succeed, so
	// recovery relies on the loss-threshold re-homing of §II-A rather
	// than missed-hello failover.
	bSingleLost, _, _ := multihomeRun(seed, false, 0.30)
	r.Table.AddRow("single ISP, 30% brown-out", bSingleLost, "-", 0)
	bDualLost, _, bFailovers := multihomeRun(seed, true, 0.30)
	r.Table.AddRow("dual ISP, 30% brown-out", bDualLost, "-", bFailovers)

	r.addFinding("total outage: single-homed lost %d packets vs dual-homed %d (worst gap %v)",
		singleLost, dualLost, dualGap)
	r.addFinding("30%% brown-out: single-homed lost %d vs dual-homed %d after loss-driven re-homing",
		bSingleLost, bDualLost)
	r.ShapeHolds = singleLost > 900 && dualLost < 100 &&
		dualGap < time.Second && failovers >= 1 &&
		bSingleLost > 150 && bDualLost < bSingleLost/2 && bFailovers >= 1
	return r
}
