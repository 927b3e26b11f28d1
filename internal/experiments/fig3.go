package experiments

import (
	"fmt"
	"time"

	"sonet/internal/core"
	"sonet/internal/link"
	"sonet/internal/metrics"
	"sonet/internal/netemu"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// fig3Scenario is one row of the Fig. 3 comparison.
type fig3Scenario struct {
	name   string
	links  []core.SimpleLink
	dst    wire.NodeID
	mutate func(*node.Config)
}

// fig3Run drives a 1000 pkt/s reliable ordered stream for the given span
// and collects overall and recovered-packet latency series.
func fig3Run(seed uint64, sc fig3Scenario, span time.Duration) (all, recovered *metrics.Latencies, deliveredFrac float64) {
	s := startLinks(seed, sc.links, sc.mutate)
	defer s.Stop()

	all = &metrics.Latencies{}
	recovered = &metrics.Latencies{}
	s.listen(sc.dst, 100).OnDeliver(func(d session.Delivery) {
		all.Add(d.Latency)
		if d.Retransmitted {
			recovered.Add(d.Latency)
		}
	})
	flow := s.flow(1, session.FlowSpec{
		DstNode: sc.dst, DstPort: 100,
		LinkProto: wire.LPReliable, Ordered: true,
	})
	stream := s.cbr(time.Millisecond, int(span/time.Millisecond), nil, flow)
	s.RunFor(span + 10*time.Second) // drain recoveries
	return all, recovered, float64(all.Count()) / float64(stream.sent())
}

// Fig3HopByHop reproduces Fig. 3 (§III-A): replacing a 50 ms end-to-end
// path with five 10 ms overlay links using hop-by-hop recovery cuts the
// minimum recovered-packet latency from ≥150 ms to ≥70 ms and smooths
// delivery. An ablation row shows in-order forwarding at intermediate
// hops giving back part of the win.
func Fig3HopByHop(seed uint64) *Result {
	const span = 15 * time.Second
	const pathLoss = 0.01
	r := &Result{
		ID:    "EXP-F3",
		Title: "Fig. 3 — 50ms end-to-end path vs five 10ms overlay links",
		PaperClaim: "end-to-end ARQ recovers a lost packet in ≥150ms; " +
			"hop-by-hop recovery over five 10ms links needs only ≥70ms, " +
			"with smoother delivery",
		Table: metrics.NewTable("scheme", "delivered", "recovered_n",
			"rec_min", "rec_mean", "rec_p99", "all_p99.9", "jitter"),
	}

	e2e := fig3Scenario{
		name: "end-to-end ARQ (50ms path)",
		links: []core.SimpleLink{{
			A: 1, B: 6, Latency: 50 * time.Millisecond,
			Loss: netemu.Bernoulli{P: pathLoss},
		}},
		dst: 6,
	}
	hbh := fig3Scenario{
		name:  "hop-by-hop (5 x 10ms links)",
		links: fig3Chain(pathLoss),
		dst:   6,
	}
	inorder := fig3Scenario{
		name:  "hop-by-hop, in-order hops (ablation)",
		links: fig3Chain(pathLoss),
		dst:   6,
		mutate: func(cfg *node.Config) {
			cfg.Reliable = link.ReliableConfig{InOrderForwarding: true}
		},
	}

	type row struct {
		name      string
		all, rec  *metrics.Latencies
		delivered float64
	}
	rows := make([]row, 0, 3)
	for _, sc := range []fig3Scenario{e2e, hbh, inorder} {
		all, rec, delivered := fig3Run(seed, sc, span)
		rows = append(rows, row{name: sc.name, all: all, rec: rec, delivered: delivered})
		r.Table.AddRow(sc.name, fmt.Sprintf("%.4f", delivered), rec.Count(),
			rec.Min(), rec.Mean(), rec.Percentile(99), all.Percentile(99.9), all.Jitter())
	}

	e2eRec, hbhRec := rows[0].rec, rows[1].rec
	r.addFinding("min recovered latency: e2e %.0fms vs hop-by-hop %.0fms (paper: 150ms vs 70ms)",
		ms(e2eRec.Min()), ms(hbhRec.Min()))
	r.addFinding("mean recovered latency ratio e2e/hbh = %.2fx",
		float64(e2eRec.Mean())/float64(nonzero(hbhRec.Mean())))
	r.addFinding("delivery jitter: e2e %.2fms vs hop-by-hop %.2fms",
		ms(rows[0].all.Jitter()), ms(rows[1].all.Jitter()))

	r.ShapeHolds = rows[0].delivered > 0.999 && rows[1].delivered > 0.999 &&
		e2eRec.Min() >= 140*time.Millisecond &&
		hbhRec.Min() >= 60*time.Millisecond && hbhRec.Min() <= 90*time.Millisecond &&
		hbhRec.Mean() < e2eRec.Mean()
	return r
}

// ms converts a duration to float milliseconds for findings text.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nonzero guards ratio denominators.
func nonzero(d time.Duration) time.Duration {
	if d == 0 {
		return 1
	}
	return d
}
