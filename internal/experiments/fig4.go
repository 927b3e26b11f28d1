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

// fig4GE returns the bursty-loss model for one scenario run: ~3% average
// loss concentrated in ~12-packet bursts — the correlated loss window the
// NM-Strikes protocol is designed to bypass (§IV-A).
func fig4GE() *netemu.GilbertElliott {
	return netemu.NewGilbertElliott(0.003, 0.08, 0.0005, 0.85)
}

// fig4Row is one protocol variant's measured outcome.
type fig4Row struct {
	late     uint64
	onTime   float64
	p99      time.Duration
	overhead float64
	analytic float64
}

// fig4Run drives a 1000 pkt/s stream over a single 40 ms continental link
// with bursty loss for one protocol configuration.
func fig4Run(seed uint64, proto wire.LinkProtoID, n, m int, deadline time.Duration) fig4Row {
	links := []core.SimpleLink{{
		A: 1, B: 2, Latency: 40 * time.Millisecond, Loss: fig4GE(),
	}}
	budget := deadline - 40*time.Millisecond
	s := startLinks(seed, links, func(cfg *node.Config) {
		cfg.Strikes = link.StrikesConfig{N: n, M: m, Budget: budget, RTT: 80 * time.Millisecond}
		cfg.SingleStrike = link.StrikesConfig{Budget: budget, RTT: 80 * time.Millisecond}
	})
	defer s.Stop()

	dst := s.listen(2, 100)
	flow := s.flow(1, session.FlowSpec{
		DstNode: 2, DstPort: 100,
		LinkProto: proto, Ordered: true, Deadline: deadline,
	})
	const span = 20 * time.Second
	stream := s.cbr(time.Millisecond, int(span/time.Millisecond), nil, flow)
	s.RunFor(span + 5*time.Second)

	st := dst.Stats()
	sent := float64(stream.sent())
	row := fig4Row{
		late:     st.Late,
		onTime:   float64(st.Received) / sent,
		p99:      st.Latency.Percentile(99),
		analytic: 1 + float64(m)*fig4GE().AverageLoss(),
	}
	// Sender-side transmissions on the link measure the 1+M·p cost.
	ls := s.Node(1).LinkStats(2)[proto]
	if ls.DataSent > 0 {
		row.overhead = float64(ls.DataSent+ls.Retransmissions) / sent
	}
	return row
}

// Fig4NMStrikes reproduces Fig. 4 (§IV-A): the NM-Strikes real-time
// protocol delivers a continental live-TV stream within its 200 ms
// deadline despite bursty loss, at a sender-side cost of 1 + M·p, where
// single-request/single-retransmission recovery is defeated by the very
// correlation the spaced strikes dodge.
func Fig4NMStrikes(seed uint64) *Result {
	const deadline = 200 * time.Millisecond
	r := &Result{
		ID:    "EXP-F4",
		Title: "Fig. 4 — NM-Strikes live video transport (200ms deadline, bursty loss)",
		PaperClaim: "N spaced requests × M spaced retransmissions bypass the window " +
			"of correlated loss within the ~160ms recovery budget; cost is 1+M·p",
		Table: metrics.NewTable("protocol", "on-time", "late", "p99", "overhead", "1+M·p"),
	}
	type variant struct {
		label string
		proto wire.LinkProtoID
		n, m  int
	}
	variants := []variant{
		{"best effort (no recovery)", wire.LPBestEffort, 0, 0},
		{"reliable ARQ (no deadline awareness)", wire.LPReliable, 0, 0},
		{"single strike (N=1,M=1)", wire.LPSingleStrike, 1, 1},
		{"NM-strikes N=2,M=1", wire.LPRealTime, 2, 1},
		{"NM-strikes N=2,M=2", wire.LPRealTime, 2, 2},
		{"NM-strikes N=3,M=2", wire.LPRealTime, 3, 2},
		{"NM-strikes N=3,M=3", wire.LPRealTime, 3, 3},
	}
	rows := make(map[string]fig4Row, len(variants))
	for _, v := range variants {
		// Paired comparison: every variant sees the same loss realization.
		row := fig4Run(seed, v.proto, v.n, v.m, deadline)
		rows[v.label] = row
		analytic := "-"
		if v.proto == wire.LPRealTime || v.proto == wire.LPSingleStrike {
			analytic = fmt.Sprintf("%.3f", row.analytic)
		}
		r.Table.AddRow(v.label, fmt.Sprintf("%.4f", row.onTime), row.late,
			row.p99, fmt.Sprintf("%.3f", row.overhead), analytic)
	}

	be := rows["best effort (no recovery)"]
	ss := rows["single strike (N=1,M=1)"]
	nm := rows["NM-strikes N=3,M=2"]
	r.addFinding("avg burst loss %.1f%%: best effort on-time %.2f%%, single strike %.2f%%, N=3/M=2 %.3f%%",
		fig4GE().AverageLoss()*100, be.onTime*100, ss.onTime*100, nm.onTime*100)
	r.addFinding("N=3/M=2 overhead %.3f vs analytic bound %.3f", nm.overhead, nm.analytic)
	r.ShapeHolds = nm.onTime > 0.999 &&
		nm.onTime > ss.onTime && ss.onTime > be.onTime &&
		nm.overhead < nm.analytic+0.05
	return r
}
