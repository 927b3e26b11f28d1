package experiments

import (
	"math"
	"time"

	"sonet/internal/core"
	"sonet/internal/netemu"
	"sonet/internal/wire"
)

// Continental node IDs: a 14-node US-scale overlay in the spirit of
// Fig. 1, with overlay links on the order of 10 ms (§II-A) and a
// coast-to-coast diameter around 40 ms (§IV-A: "on the scale of a
// continent with a 40ms propagation delay").
const (
	NYC wire.NodeID = iota + 1
	PHI
	DC
	ATL
	MIA
	CHI
	DEN
	DAL
	LAX
	SFO
	SEA
	SLC
	PIT
	MSP
)

// continentalNames maps node IDs to city mnemonics for reporting.
var continentalNames = map[wire.NodeID]string{
	NYC: "NYC", PHI: "PHI", DC: "DC", ATL: "ATL", MIA: "MIA",
	CHI: "CHI", DEN: "DEN", DAL: "DAL", LAX: "LAX", SFO: "SFO",
	SEA: "SEA", SLC: "SLC", PIT: "PIT", MSP: "MSP",
}

// continentalLinks returns the designed continental topology with the
// given loss model cloned per link (stateful models must not be shared).
func continentalLinks(loss func() netemu.LossModel) []core.SimpleLink {
	if loss == nil {
		loss = func() netemu.LossModel { return nil }
	}
	ms := time.Millisecond
	spec := []struct {
		a, b wire.NodeID
		lat  time.Duration
	}{
		{NYC, PHI, 3 * ms}, {NYC, CHI, 10 * ms}, {NYC, DC, 9 * ms},
		{PHI, DC, 3 * ms}, {PHI, PIT, 4 * ms},
		{DC, ATL, 9 * ms}, {DC, CHI, 9 * ms}, {DC, DAL, 16 * ms},
		{ATL, MIA, 9 * ms}, {ATL, DAL, 10 * ms},
		{CHI, DEN, 12 * ms}, {CHI, MSP, 5 * ms},
		{PIT, MSP, 9 * ms}, {MSP, SEA, 18 * ms},
		{DEN, SLC, 6 * ms}, {DEN, DAL, 9 * ms}, {DEN, LAX, 12 * ms},
		{DAL, LAX, 12 * ms},
		{SLC, SFO, 9 * ms}, {SLC, SEA, 11 * ms},
		{SFO, LAX, 5 * ms}, {SFO, SEA, 10 * ms},
	}
	links := make([]core.SimpleLink, 0, len(spec))
	for _, s := range spec {
		links = append(links, core.SimpleLink{A: s.a, B: s.b, Latency: s.lat, Loss: loss()})
	}
	return links
}

// fig3Chain returns the hop-by-hop half of the Fig. 3 world: the chain of
// five 10 ms overlay links 1-2-3-4-5-6 that replaces the direct 50 ms
// path between nodes 1 and 6, each leg carrying a share of the same ~1%
// end-to-end loss.
func fig3Chain(pathLoss float64) []core.SimpleLink {
	// Per-link loss p with 1-(1-p)^5 = pathLoss.
	perLink := 1 - math.Pow(1-pathLoss, 0.2)
	var links []core.SimpleLink
	for n := wire.NodeID(1); n < 6; n++ {
		links = append(links, core.SimpleLink{
			A: n, B: n + 1, Latency: 10 * time.Millisecond,
			Loss: netemu.Bernoulli{P: perLink},
		})
	}
	return links
}
