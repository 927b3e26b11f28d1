package experiments

import (
	"fmt"
	"time"

	"sonet/internal/core"
	"sonet/internal/itmsg"
	"sonet/internal/metrics"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// fairOutcome is one scheduling discipline's measured service to honest
// sources under attack.
type fairOutcome struct {
	honestGoodput float64 // fraction of honest messages delivered
	honestLatency time.Duration
	attackerShare float64 // fraction of delivered traffic from attacker
}

// fairnessRun drives three honest 50 pkt/s sources plus one flooding
// attacker through a relay whose egress link has 1000 pkt/s capacity,
// under one scheduling discipline.
func fairnessRun(seed uint64, proto wire.LinkProtoID, fair bool) fairOutcome {
	// Star: sources 1,2,3 and attacker 6 feed relay 4; destination 5.
	ms := time.Millisecond
	links := []core.SimpleLink{
		{A: 1, B: 4, Latency: 5 * ms},
		{A: 2, B: 4, Latency: 5 * ms},
		{A: 3, B: 4, Latency: 5 * ms},
		{A: 6, B: 4, Latency: 5 * ms},
		{A: 4, B: 5, Latency: 10 * ms},
	}
	s := startLinks(seed, links, func(cfg *node.Config) {
		// Access links are fast and deep so the full flood reaches the
		// relay; the relay's egress link (node 4) is the 1000 pkt/s
		// bottleneck where the disciplines compete.
		if cfg.ID == 4 {
			cfg.ITSched = itmsg.SchedConfig{
				Rate:            1000,
				BufferPerSource: 64,
				DisableFairness: !fair,
				TotalBuffer:     256,
			}
			return
		}
		cfg.ITSched = itmsg.SchedConfig{
			Rate:            40000,
			BufferPerSource: 8192,
			TotalBuffer:     32768,
		}
	})
	defer s.Stop()

	honestLat := &metrics.Latencies{}
	var honestRecv, attackRecv int
	s.listen(5, 100).OnDeliver(func(d session.Delivery) {
		if d.From == 6 {
			attackRecv++
			return
		}
		honestRecv++
		honestLat.Add(d.Latency)
	})

	toDst := session.FlowSpec{DstNode: 5, DstPort: 100, LinkProto: proto}
	var honest []*generator
	for _, src := range []wire.NodeID{1, 2, 3} {
		honest = append(honest, s.cbr(20*ms, 0, nil, s.flow(src, toDst)))
	}
	// A steady 10000 pkt/s flood (10x the bottleneck) keeps the relay's
	// shared queue pinned; bursty attacks would let honest traffic slip
	// in between bursts.
	attack := s.flood(time.Millisecond, 10, s.flow(6, toDst))

	s.RunFor(20 * time.Second)
	honestSent := stopAll(honest)
	attack.stop()
	s.RunFor(5 * time.Second)

	total := honestRecv + attackRecv
	out := fairOutcome{
		honestGoodput: float64(honestRecv) / float64(honestSent),
		honestLatency: honestLat.Percentile(50),
	}
	if total > 0 {
		out.attackerShare = float64(attackRecv) / float64(total)
	}
	return out
}

// Fairness reproduces the §IV-B claim: per-source (Priority) and per-flow
// (Reliable) buffers with round-robin forwarding keep a compromised
// source's resource-consumption attack from starving correct sources,
// where a shared FIFO fails.
func Fairness(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-FAIR",
		Title: "Fair forwarding under a resource-consumption attack (10x overload)",
		PaperClaim: "fair buffer allocation and round-robin scheduling ensure a " +
			"compromised source cannot consume the resources of other sources",
		Table: metrics.NewTable("discipline", "honest_goodput", "honest_p50", "attacker_share"),
	}
	type variant struct {
		label string
		proto wire.LinkProtoID
		fair  bool
	}
	variants := []variant{
		{"IT-Priority, fair round-robin", wire.LPITPriority, true},
		{"IT-Priority, shared FIFO (baseline)", wire.LPITPriority, false},
		{"IT-Reliable, fair per-flow", wire.LPITReliable, true},
		{"IT-Reliable, shared FIFO (baseline)", wire.LPITReliable, false},
	}
	outcomes := make(map[string]fairOutcome, len(variants))
	for i, v := range variants {
		out := fairnessRun(seed+uint64(i), v.proto, v.fair)
		outcomes[v.label] = out
		r.Table.AddRow(v.label, fmt.Sprintf("%.3f", out.honestGoodput),
			out.honestLatency, fmt.Sprintf("%.3f", out.attackerShare))
	}
	fairPrio := outcomes["IT-Priority, fair round-robin"]
	fifoPrio := outcomes["IT-Priority, shared FIFO (baseline)"]
	fairRel := outcomes["IT-Reliable, fair per-flow"]
	r.addFinding("fair round-robin: honest goodput %.1f%% at p50 %.0fms despite 10x attack",
		fairPrio.honestGoodput*100, ms(fairPrio.honestLatency))
	r.addFinding("shared FIFO collapses honest goodput to %.1f%%", fifoPrio.honestGoodput*100)
	r.ShapeHolds = fairPrio.honestGoodput > 0.99 &&
		fairRel.honestGoodput > 0.99 &&
		fairPrio.honestLatency < 50*time.Millisecond &&
		(fifoPrio.honestGoodput < 0.9 || fifoPrio.honestLatency > 150*time.Millisecond)

	// Starvation sweep at scheduler scale: the end-to-end runs above max
	// out around a handful of sources, so the flow-count scaling claim is
	// checked directly against the round-robin core — one attacker
	// flooding 100x against 1k/10k/100k backlogged honest flows must win
	// no more than its own single fair share.
	sweep := metrics.NewTable("flows", "rounds", "attacker_served", "honest_min", "honest_max", "holds")
	for _, pt := range []struct{ flows, rounds int }{{1000, 64}, {10000, 16}, {100000, 4}} {
		res := itmsg.StarvationSweep(pt.flows, pt.rounds)
		holds := res.Holds()
		sweep.AddRow(pt.flows, pt.rounds, res.AttackerServed, res.HonestMinServed, res.HonestMaxServed, holds)
		r.ShapeHolds = r.ShapeHolds && holds
	}
	r.Extra = append(r.Extra, sweep)
	r.addFinding("starvation sweep: fair share holds at 1k/10k/100k flows with a 100x attacker")
	return r
}
