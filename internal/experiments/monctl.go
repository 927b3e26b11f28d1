package experiments

import (
	"fmt"
	"time"

	"sonet/internal/metrics"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// MonitoringControl reproduces §III-B: one overlay simultaneously serves
// cloud monitoring (timely multicast telemetry, stale data discarded) and
// cloud control (completely reliable commands), each flow selecting its
// own services, while the network suffers a loss episode and a fiber cut
// mid-run.
func MonitoringControl(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-MONCTL",
		Title: "Resilient cloud monitoring + control over one overlay",
		PaperClaim: "a timeliness-oriented protocol serves monitoring while a " +
			"completely reliable protocol serves control, simultaneously, " +
			"with better performance than the native Internet",
		Table: metrics.NewTable("class", "sent", "delivered", "on-time<=150ms", "p99", "lost/late"),
	}
	s := startLinks(seed, continentalLinks(nil), nil)
	defer s.Stop()

	// Monitoring: five cloud endpoints publish telemetry to a group whose
	// members are two operations centers.
	const monGroup wire.GroupID = 2000
	opsCenters := []wire.NodeID{NYC, SFO}
	var monClients []*session.Client
	for _, ops := range opsCenters {
		c := s.listen(ops, 200)
		c.Join(monGroup)
		monClients = append(monClients, c)
	}
	s.Settle()

	var monStreams, ctlStreams []*generator
	for _, ep := range []wire.NodeID{MIA, SEA, DAL, CHI, DEN} {
		flow := s.flow(ep, session.FlowSpec{
			Group: monGroup, DstPort: 200,
			LinkProto: wire.LPRealTime,
			Deadline:  150 * time.Millisecond,
		})
		monStreams = append(monStreams, s.poisson(20*time.Millisecond, nil, flow))
	}

	// Control: the NYC operations center sends reliable ordered commands
	// to three actuator sites.
	ctl := s.listen(NYC, 0)
	var ctlClients []*session.Client
	for _, a := range []wire.NodeID{DAL, SEA, MIA} {
		ctlClients = append(ctlClients, s.listen(a, 300))
		flow := s.open(ctl, session.FlowSpec{
			DstNode: a, DstPort: 300,
			LinkProto: wire.LPReliable, Ordered: true,
		})
		ctlStreams = append(ctlStreams, s.poisson(100*time.Millisecond, []byte("cmd"), flow))
	}

	// Mid-run trouble: a regional 30% loss episode around DC for 5 s,
	// then a core fiber cut.
	region := [][2]wire.NodeID{{NYC, DC}, {DC, CHI}, {DC, ATL}}
	regionLoss := func(p float64) func() {
		return func() {
			for _, l := range region {
				check(s.links.SetLinkExtraLoss(l[0], l[1], p))
			}
		}
	}
	s.Sched.After(10*time.Second, regionLoss(0.30))
	s.Sched.After(15*time.Second, regionLoss(0))
	s.Sched.After(20*time.Second, func() { check(s.links.CutLink(CHI, DEN)) })
	s.RunFor(30 * time.Second)
	monSent, ctlSent := stopAll(monStreams), stopAll(ctlStreams)
	s.RunFor(10 * time.Second) // drain

	monRecv, monLate, monLat := mergeStats(monClients)
	ctlRecv, ctlLate, ctlLat := mergeStats(ctlClients)
	monExpected := uint64(monSent) * uint64(len(opsCenters))
	r.Table.AddRow("monitoring (timely multicast)", monExpected, monRecv,
		fmt.Sprintf("%.4f", monLat.OnTime(150*time.Millisecond)),
		monLat.Percentile(99), monLate)
	r.Table.AddRow("control (reliable unicast)", ctlSent, ctlRecv,
		fmt.Sprintf("%.4f", ctlLat.OnTime(150*time.Millisecond)),
		ctlLat.Percentile(99), ctlLate)

	monDeliv := float64(monRecv) / float64(monExpected)
	ctlDeliv := float64(ctlRecv) / float64(ctlSent)
	r.addFinding("monitoring delivered %.2f%% (every delivery fresh, stale discarded); control delivered %.2f%%",
		monDeliv*100, ctlDeliv*100)
	r.addFinding("control is lossless through the loss episode and fiber cut; monitoring favors freshness")
	r.ShapeHolds = ctlDeliv >= 0.9999 && monDeliv > 0.95 &&
		monLat.OnTime(150*time.Millisecond) > 0.999
	return r
}

// mergeStats sums the receive-side statistics of several clients.
func mergeStats(clients []*session.Client) (received, late uint64, lat *metrics.Latencies) {
	lat = &metrics.Latencies{}
	for _, c := range clients {
		st := c.Stats()
		received += st.Received
		late += st.Late
		for _, l := range st.Latency.Samples() {
			lat.Add(l)
		}
	}
	return received, late, lat
}
