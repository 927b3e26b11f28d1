package experiments

import (
	"fmt"
	"time"

	"sonet/internal/core"
	"sonet/internal/metrics"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// mcastOutcome is one dissemination scheme's measured cost.
type mcastOutcome struct {
	delivered     int
	expected      int
	transmissions uint64
	srcEgress     uint64
}

// mcastMembers returns the first g continental nodes other than the
// source, spread across the map.
func mcastMembers(g int) []wire.NodeID {
	order := []wire.NodeID{SFO, MIA, SEA, DAL, CHI, DEN, ATL, LAX, SLC, PHI, DC, MSP, PIT}
	return order[:g]
}

// totalDataTransmissions sums first transmissions of data frames over all
// nodes and link protocols.
func totalDataTransmissions(o *core.Overlay) uint64 {
	var total uint64
	for _, id := range o.Graph.Nodes() {
		n := o.Node(id)
		for _, lid := range o.Graph.Incident(id) {
			l, _ := o.Graph.Link(lid)
			peer, _ := l.Other(id)
			for _, st := range n.LinkStats(peer) {
				total += st.DataSent + st.Retransmissions
			}
		}
	}
	return total
}

// mcastRun sends count packets from NYC to g members, via overlay
// multicast or per-member unicast replication.
func mcastRun(seed uint64, g int, multicast bool) mcastOutcome {
	s := startLinks(seed, continentalLinks(nil), nil)
	defer s.Stop()

	members := mcastMembers(g)
	const grp wire.GroupID = 1000
	delivered := 0
	for _, m := range members {
		c := s.listen(m, 100)
		c.Join(grp)
		c.OnDeliver(func(session.Delivery) { delivered++ })
	}
	s.Settle()

	src := s.listen(NYC, 0)
	var flows []*session.Flow
	if multicast {
		flows = append(flows, s.open(src, session.FlowSpec{Group: grp, DstPort: 100}))
	} else {
		for _, m := range members {
			flows = append(flows, s.open(src, session.FlowSpec{DstNode: m, DstPort: 100}))
		}
	}

	// Baseline transmissions (hellos are control frames, not counted; LSA
	// and group floods are data frames on the best-effort proto, so
	// measure the delta across the send phase).
	base := totalDataTransmissions(s.Overlay)
	const count = 1000
	s.cbr(10*time.Millisecond, count, nil, flows...)
	s.RunFor(12 * time.Second)
	// Subtract the control chatter measured on an idle twin interval.
	idleBase := totalDataTransmissions(s.Overlay)
	s.RunFor(12 * time.Second)
	idleChatter := totalDataTransmissions(s.Overlay) - idleBase

	return mcastOutcome{
		delivered:     delivered,
		expected:      count * g,
		transmissions: idleBase - base - idleChatter,
		srcEgress:     s.Node(NYC).Stats().Forwarded,
	}
}

// Multicast reproduces the §III-A/§III-B claim: overlay multicast
// delivers a stream to many endpoints over a shared tree, without the
// per-destination copies unicast replication needs — the capability "not
// practically available on the Internet".
func Multicast(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-MCAST",
		Title: "Overlay multicast vs unicast replication (14-node continental overlay)",
		PaperClaim: "the overlay constructs the most efficient multicast tree to " +
			"route messages to all overlay nodes that have clients in the group",
		Table: metrics.NewTable("members", "scheme", "delivered", "link_transmissions/pkt", "src_egress/pkt"),
	}
	r.ShapeHolds = true
	var ratioAt8 float64
	for _, g := range []int{2, 4, 8, 13} {
		mc := mcastRun(seed, g, true)
		uc := mcastRun(seed+1, g, false)
		const count = 1000.0
		r.Table.AddRow(g, "multicast", fmt.Sprintf("%d/%d", mc.delivered, mc.expected),
			fmt.Sprintf("%.2f", float64(mc.transmissions)/count),
			fmt.Sprintf("%.2f", float64(mc.srcEgress)/count))
		r.Table.AddRow(g, "unicast xN", fmt.Sprintf("%d/%d", uc.delivered, uc.expected),
			fmt.Sprintf("%.2f", float64(uc.transmissions)/count),
			fmt.Sprintf("%.2f", float64(uc.srcEgress)/count))
		if mc.delivered != mc.expected || uc.delivered != uc.expected {
			r.ShapeHolds = false
		}
		if mc.transmissions >= uc.transmissions && g >= 4 {
			r.ShapeHolds = false
		}
		if g == 8 {
			ratioAt8 = float64(uc.transmissions) / float64(mc.transmissions)
		}
	}
	r.addFinding("at 8 members, unicast replication costs %.2fx the link transmissions of the multicast tree", ratioAt8)
	return r
}
