package experiments

import (
	"fmt"
	"time"

	"sonet/internal/core"
	"sonet/internal/metrics"
	"sonet/internal/netemu"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// metricRun streams best-effort traffic across the diamond while the
// nominally-best link is persistently lossy, under one routing metric.
func metricRun(seed uint64, metric topology.Metric) (delivered float64, mean time.Duration) {
	ms := time.Millisecond
	links := []core.SimpleLink{
		// The fast northern path's first hop is chronically lossy.
		{A: 1, B: 2, Latency: 10 * ms, Loss: netemu.Bernoulli{P: 0.15}},
		{A: 2, B: 4, Latency: 10 * ms},
		{A: 1, B: 3, Latency: 12 * ms},
		{A: 3, B: 4, Latency: 12 * ms},
	}
	s := startLinks(seed, links, func(cfg *node.Config) {
		cfg.Metric = metric
		// A higher miss threshold keeps the lossy link from flapping, so
		// the comparison isolates the metric, not failure detection.
		cfg.LinkState.HelloMiss = 8
	})
	defer s.Stop()
	// Let one full loss-measurement window (8 s from the start) close and
	// flood before streaming, so metrics that use loss can see it.
	s.RunFor(7 * time.Second)

	dst := s.listen(4, 100)
	flow := s.flow(1, session.FlowSpec{DstNode: 4, DstPort: 100, LinkProto: wire.LPBestEffort})
	const n = 2000
	s.cbr(5*time.Millisecond, n, nil, flow)
	s.RunFor(15 * time.Second)
	st := dst.Stats()
	return float64(st.Received) / n, st.Latency.Mean()
}

// RoutingMetric is the DESIGN.md §5 metric ablation: hop-count and pure
// latency metrics keep traffic on a chronically lossy link, while the
// loss-penalized expected-latency metric (the Spines-style production
// choice) detours around it using the loss estimates shared through the
// Connectivity Graph Maintenance component.
func RoutingMetric(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-METRIC",
		Title: "Routing metric ablation: hop vs latency vs loss-penalized expected latency",
		PaperClaim: "shared link state includes current loss and latency " +
			"characteristics, letting routing react to network conditions (§II-B)",
		Table: metrics.NewTable("metric", "delivered", "mean_latency"),
	}
	variants := []struct {
		label  string
		metric topology.Metric
	}{
		{"hop count", topology.HopMetric},
		{"latency only", topology.LatencyMetric},
		{"expected latency (loss-penalized)", topology.ExpectedLatencyMetric},
	}
	results := make(map[string]float64, len(variants))
	for _, v := range variants {
		delivered, mean := metricRun(seed, v.metric)
		results[v.label] = delivered
		r.Table.AddRow(v.label, fmt.Sprintf("%.4f", delivered), mean)
	}
	lat := results["latency only"]
	exp := results["expected latency (loss-penalized)"]
	r.addFinding("latency-only keeps the 15%%-lossy link (%.1f%% delivered); the loss-penalized metric detours (%.1f%%)",
		lat*100, exp*100)
	r.ShapeHolds = exp > 0.995 && lat < 0.92 && results["hop count"] < 0.92
	return r
}
