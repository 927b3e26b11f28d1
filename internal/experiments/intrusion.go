package experiments

import (
	"fmt"
	"time"

	"sonet/internal/itmsg"
	"sonet/internal/metrics"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// itScheme is one dissemination scheme under attack.
type itScheme struct {
	label string
	spec  session.FlowSpec
}

// itSchemes returns the §IV-B dissemination schemes for an NYC→SFO flow.
func itSchemes() []itScheme {
	base := session.FlowSpec{DstNode: SFO, DstPort: 100, LinkProto: wire.LPITPriority}
	disjoint2, disjoint3, flood := base, base, base
	disjoint2.DisjointK = 2
	disjoint3.DisjointK = 3
	flood.Flood = true
	return []itScheme{
		{"shortest path", base},
		{"2 node-disjoint paths", disjoint2},
		{"3 node-disjoint paths", disjoint3},
		{"constrained flooding", flood},
	}
}

// itCompromiseSets returns adversarial compromised-node placements for
// f = 0..3: the attacker captures one intermediate node on each of the
// source's best disjoint paths, maximizing damage to path-based schemes.
func itCompromiseSets() [][]wire.NodeID {
	// The three cheapest node-disjoint NYC→SFO paths in the continental
	// topology run via CHI-DEN-SLC, DC-DAL-LAX, and PHI-PIT-MSP-SEA.
	return [][]wire.NodeID{
		nil,
		{SLC},
		{SLC, DAL},
		{SLC, DAL, SEA},
	}
}

// itRun measures delivery ratio and transmission cost for one scheme
// under one compromise set.
func itRun(seed uint64, scheme itScheme, compromised []wire.NodeID) (ratio, cost float64) {
	var all []wire.NodeID
	for id := NYC; id <= MSP; id++ {
		all = append(all, id)
	}
	keySeed := []byte("exp-it")
	s := startLinks(seed, continentalLinks(nil), func(cfg *node.Config) {
		cfg.Keyring = itmsg.NewDeterministicKeyring(cfg.ID, all, keySeed)
		// A fast schedule keeps pacing out of this dissemination study.
		cfg.ITSched = itmsg.SchedConfig{Rate: 100000, BufferPerSource: 4096}
		for _, c := range compromised {
			if cfg.ID == c {
				cfg.Compromised = node.Compromise{DropData: true}
			}
		}
	})
	defer s.Stop()

	dst := s.listen(SFO, 100)
	flow := s.flow(NYC, scheme.spec)
	base := totalDataTransmissions(s.Overlay)
	const count = 200
	for i := 0; i < count; i++ {
		_ = flow.Send(nil) // a scheme with no surviving path refuses; that is the measurement
		s.RunFor(10 * time.Millisecond)
	}
	s.RunFor(2 * time.Second)
	tx := totalDataTransmissions(s.Overlay) - base
	delivered := len(dst.Deliveries())
	if delivered == 0 {
		return 0, 0
	}
	return float64(delivered) / count, float64(tx) / float64(delivered)
}

// IntrusionTolerance reproduces the §IV-B claims: k node-disjoint paths
// tolerate k−1 compromised nodes anywhere in the network, and constrained
// flooding delivers as long as any path of correct nodes connects source
// and destination — at increasing transmission cost.
func IntrusionTolerance(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-IT",
		Title: "Intrusion-tolerant dissemination under compromised overlay nodes (NYC→SFO)",
		PaperClaim: "k node-disjoint paths protect against up to k−1 compromised " +
			"nodes; constrained flooding delivers while any correct path exists",
		Table: metrics.NewTable("compromised", "scheme", "delivery", "tx/delivered"),
	}
	sets := itCompromiseSets()
	ratios := make(map[string][]float64)
	for f, comp := range sets {
		for si, scheme := range itSchemes() {
			ratio, cost := itRun(seed+uint64(f*10+si), scheme, comp)
			names := make([]string, 0, len(comp))
			for _, c := range comp {
				names = append(names, continentalNames[c])
			}
			label := "none"
			if len(names) > 0 {
				label = fmt.Sprintf("%v", names)
			}
			costCell := "-"
			if ratio > 0 {
				costCell = fmt.Sprintf("%.2f", cost)
			}
			r.Table.AddRow(label, scheme.label, fmt.Sprintf("%.3f", ratio), costCell)
			ratios[scheme.label] = append(ratios[scheme.label], ratio)
		}
	}

	sp := ratios["shortest path"]
	d2 := ratios["2 node-disjoint paths"]
	d3 := ratios["3 node-disjoint paths"]
	fl := ratios["constrained flooding"]
	r.addFinding("f=1: shortest path %.0f%%, 2-disjoint %.0f%% (tolerates k-1=1)", sp[1]*100, d2[1]*100)
	r.addFinding("f=2: 2-disjoint %.0f%%, 3-disjoint %.0f%% (tolerates k-1=2)", d2[2]*100, d3[2]*100)
	r.addFinding("f=3: flooding still delivers %.0f%% (correct path exists)", fl[3]*100)
	r.ShapeHolds = sp[0] == 1 && sp[1] < 1 && // shortest path falls to one compromise
		d2[1] == 1 && d2[2] < 1 && // k=2 tolerates 1, not 2
		d3[2] == 1 && // k=3 tolerates 2
		fl[1] == 1 && fl[2] == 1 && fl[3] == 1 // flooding survives all
	return r
}
