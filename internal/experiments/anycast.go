package experiments

import (
	"time"

	"sonet/internal/metrics"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// Anycast reproduces the §II-B anycast service: a message addressed to a
// group is delivered to exactly one member — the nearest — giving lower
// latency than unicasting to a fixed (or unlucky) replica, and re-resolving
// automatically when the nearest member becomes unreachable.
func Anycast(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-ANYCAST",
		Title: "Anycast to nearest group member (replicated service on MIA/SEA/DAL)",
		PaperClaim: "anycast messages are delivered to exactly one member of the " +
			"relevant group, selecting the best target from shared group state",
		Table: metrics.NewTable("source", "scheme", "served_by", "latency"),
	}
	s := startLinks(seed, continentalLinks(nil), nil)
	defer s.Stop()

	const grp wire.GroupID = 3000
	replicas := []wire.NodeID{MIA, SEA, DAL}
	served := 0
	var lastServer wire.NodeID
	var lastLatency time.Duration
	for _, rep := range replicas {
		c := s.listen(rep, 100)
		c.Join(grp)
		c.OnDeliver(func(d session.Delivery) {
			served++
			lastServer = rep
			lastLatency = d.Latency
		})
	}
	s.Settle()

	// probe sends one message on a fresh flow of src and waits for it.
	probe := func(src *session.Client, spec session.FlowSpec) {
		served = 0
		check(s.open(src, spec).Send(nil))
		s.RunFor(500 * time.Millisecond)
	}
	anycast := session.FlowSpec{Group: grp, Anycast: true, DstPort: 100}
	fixed := session.FlowSpec{DstNode: replicas[0], DstPort: 100} // naive client pinned to MIA
	r.ShapeHolds = true
	var anySum, fixedSum time.Duration
	for _, srcNode := range []wire.NodeID{NYC, SFO, CHI} {
		src := s.listen(srcNode, 0)
		probe(src, anycast)
		if served != 1 {
			r.ShapeHolds = false
		}
		anyLat := lastLatency
		anySum += anyLat
		r.Table.AddRow(continentalNames[srcNode], "anycast",
			continentalNames[lastServer], anyLat)

		probe(src, fixed)
		fixedSum += lastLatency
		r.Table.AddRow(continentalNames[srcNode], "fixed replica",
			continentalNames[lastServer], lastLatency)
		if anyLat > lastLatency {
			r.ShapeHolds = false
		}
	}

	// Failover: the nearest replica to SFO (SEA) becomes unreachable; the
	// next anycast from SFO must re-resolve.
	s.failSite(SEA)
	s.RunFor(3 * time.Second)
	probe(s.listen(SFO, 0), anycast)
	r.Table.AddRow("SFO (SEA down)", "anycast", continentalNames[lastServer], lastLatency)
	if lastServer == SEA || lastServer == 0 {
		r.ShapeHolds = false
	}

	r.addFinding("mean anycast latency %.1fms vs fixed-replica %.1fms across 3 sources",
		ms(anySum/3), ms(fixedSum/3))
	r.addFinding("after SEA failure, SFO's anycast re-resolved to %s", continentalNames[lastServer])
	if anySum >= fixedSum {
		r.ShapeHolds = false
	}
	return r
}
