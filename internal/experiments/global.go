package experiments

import (
	"fmt"
	"time"

	"sonet/internal/core"
	"sonet/internal/metrics"
	"sonet/internal/session"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// Global node IDs, continuing after the continental set.
const (
	LON wire.NodeID = iota + 100
	PAR
	FRA
	AMS
	MAD
	MIL
	STO
	DXB
	BOM
	SIN
	HKG
	TYO
	SYD
	SAO
	JNB
)

// globalNames extends continentalNames for reporting.
var globalNames = map[wire.NodeID]string{
	LON: "LON", PAR: "PAR", FRA: "FRA", AMS: "AMS", MAD: "MAD",
	MIL: "MIL", STO: "STO", DXB: "DXB", BOM: "BOM", SIN: "SIN",
	HKG: "HKG", TYO: "TYO", SYD: "SYD", SAO: "SAO", JNB: "JNB",
}

func globalName(n wire.NodeID) string {
	if s, ok := continentalNames[n]; ok {
		return s
	}
	if s, ok := globalNames[n]; ok {
		return s
	}
	return n.String()
}

// globalLinks extends the 14-node US overlay into a 29-node global one:
// a European mesh, transatlantic and transpacific cables, the Middle
// East/Asia corridor, and South America/Africa spurs — the Fig. 1
// resilient architecture at world scale, with overlay links kept as short
// as geography allows (§II-A).
func globalLinks() []core.SimpleLink {
	ms := time.Millisecond
	links := continentalLinks(nil)
	spec := []struct {
		a, b wire.NodeID
		lat  time.Duration
	}{
		// Transatlantic.
		{NYC, LON, 35 * ms}, {DC, PAR, 40 * ms}, {MIA, MAD, 40 * ms},
		// European mesh (~5-10 ms links).
		{LON, PAR, 4 * ms}, {LON, AMS, 4 * ms}, {PAR, FRA, 5 * ms},
		{AMS, FRA, 4 * ms}, {FRA, MIL, 5 * ms}, {PAR, MAD, 8 * ms},
		{LON, STO, 10 * ms}, {FRA, STO, 9 * ms}, {PAR, MIL, 6 * ms},
		// Middle East / Asia corridor.
		{FRA, DXB, 50 * ms}, {MIL, DXB, 45 * ms},
		{DXB, BOM, 15 * ms}, {BOM, SIN, 25 * ms},
		{SIN, HKG, 17 * ms}, {HKG, TYO, 25 * ms},
		// Transpacific.
		{TYO, SEA, 45 * ms}, {TYO, SFO, 50 * ms},
		{SYD, LAX, 70 * ms}, {SIN, SYD, 45 * ms},
		// South America and Africa spurs.
		{MIA, SAO, 58 * ms}, {SAO, MAD, 75 * ms},
		{LON, JNB, 75 * ms}, {JNB, DXB, 60 * ms},
	}
	for _, s := range spec {
		links = append(links, core.SimpleLink{A: s.a, B: s.b, Latency: s.lat})
	}
	return links
}

// GlobalCoverage reproduces the §II-A coverage claim: a few tens of
// well-situated overlay nodes cover the globe, with overlay links around
// 10 ms where geography allows and about 150 ms sufficient to reach
// nearly any point from any other point.
func GlobalCoverage(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-GLOBAL",
		Title: "Global coverage of a 29-node structured overlay",
		PaperClaim: "a few tens of well situated overlay nodes provide excellent " +
			"global coverage; about 150ms is sufficient to reach nearly any point " +
			"on the globe from any other point",
		Table: metrics.NewTable("measure", "value"),
	}
	s := startLinks(seed, globalLinks(), nil)
	defer s.Stop()

	// All-pairs overlay path latencies from the converged shared view.
	view := s.Node(NYC).View()
	nodes := s.Graph.Nodes()
	var pair metrics.Latencies
	var worst time.Duration
	var worstA, worstB wire.NodeID
	unreachable := 0
	for i, a := range nodes {
		spt := topology.ShortestPaths(view, a, topology.LatencyMetric)
		for _, b := range nodes[i+1:] {
			lat, err := view.PathLatency(spt.Path(b))
			if err != nil || !spt.Reachable(b) {
				unreachable++
				continue
			}
			pair.Add(lat)
			if lat > worst {
				worst, worstA, worstB = lat, a, b
			}
		}
	}
	var linkMean time.Duration
	for _, l := range s.Graph.Links() {
		linkMean += l.Latency
	}
	linkMean /= time.Duration(s.Graph.NumLinks())
	within150 := pair.OnTime(150 * time.Millisecond)

	r.Table.AddRow("overlay nodes", s.Graph.NumNodes())
	r.Table.AddRow("overlay links", s.Graph.NumLinks())
	r.Table.AddRow("mean link latency", linkMean)
	r.Table.AddRow("pairwise p50", pair.Percentile(50))
	r.Table.AddRow("pairwise p90", pair.Percentile(90))
	r.Table.AddRow("pairs within 150ms", fmt.Sprintf("%.1f%%", within150*100))
	r.Table.AddRow("diameter", fmt.Sprintf("%v (%s-%s)", worst, globalName(worstA), globalName(worstB)))

	// Live validation: stream across the measured diameter pair.
	dst := s.listen(worstB, 100)
	flow := s.flow(worstA, session.FlowSpec{
		DstNode: worstB, DstPort: 100,
		LinkProto: wire.LPReliable, Ordered: true,
	})
	const n = 100
	s.cbr(10*time.Millisecond, n, nil, flow)
	s.RunFor(10 * time.Second)
	st := dst.Stats()
	r.Table.AddRow("diameter live p99", st.Latency.Percentile(99))

	r.addFinding("%d nodes / %d links cover the globe: %.1f%% of pairs within 150ms, diameter %v (%s→%s)",
		s.Graph.NumNodes(), s.Graph.NumLinks(), within150*100, worst,
		globalName(worstA), globalName(worstB))
	r.addFinding("live stream across the diameter delivered %d/%d at p99 %v",
		st.Received, n, st.Latency.Percentile(99))
	r.ShapeHolds = unreachable == 0 &&
		within150 >= 0.90 &&
		worst <= 220*time.Millisecond &&
		linkMean <= 25*time.Millisecond &&
		st.Received == n
	return r
}
