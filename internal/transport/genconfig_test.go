package transport

import (
	"testing"

	"sonet/internal/wire"
)

func validTopo() TopologyConfig {
	return TopologyConfig{
		Links: []LinkDef{
			{A: 1, B: 2, LatencyMs: 10},
			{A: 2, B: 3, LatencyMs: 12},
		},
		Nodes: map[wire.NodeID]NodeAddr{
			1: {UDP: []string{"10.0.0.1:7000"}, TCP: "10.0.0.1:8000"},
			2: {UDP: []string{"10.0.1.1:7000", "10.1.1.1:7000"}},
			3: {UDP: []string{"10.0.2.1:7000"}},
		},
		HelloIntervalMs: 50,
		Shards:          2,
	}
}

func TestGenerateConfigs(t *testing.T) {
	cfgs, err := GenerateConfigs(validTopo())
	if err != nil {
		t.Fatalf("GenerateConfigs: %v", err)
	}
	if len(cfgs) != 3 {
		t.Fatalf("generated %d configs, want 3", len(cfgs))
	}
	c1 := cfgs[1]
	if c1.BindUDP != "10.0.0.1:7000" || c1.BindTCP != "10.0.0.1:8000" {
		t.Fatalf("node 1 binds = %q/%q", c1.BindUDP, c1.BindTCP)
	}
	if got := c1.Peers[2]; len(got) != 2 || got[1] != "10.1.1.1:7000" {
		t.Fatalf("node 1 sees node 2 at %v, want both multihomed addresses", got)
	}
	if len(c1.Links) != 2 || c1.HelloIntervalMs != 50 {
		t.Fatalf("links/hello not propagated: %+v", c1)
	}
	if c1.Shards != 2 {
		t.Fatalf("shard count not propagated: %d", c1.Shards)
	}
	if c3 := cfgs[3]; c3.BindTCP != "" {
		t.Fatalf("node 3 got a TCP listener: %q", c3.BindTCP)
	}
	// Per-config slices must be independent copies.
	c1.Links[0].LatencyMs = 999
	if cfgs[2].Links[0].LatencyMs == 999 {
		t.Fatal("configs share link slices")
	}
}

func TestGenerateConfigsValidation(t *testing.T) {
	cases := map[string]func(*TopologyConfig){
		"no links":            func(tc *TopologyConfig) { tc.Links = nil },
		"self link":           func(tc *TopologyConfig) { tc.Links[0].B = tc.Links[0].A },
		"zero latency":        func(tc *TopologyConfig) { tc.Links[0].LatencyMs = 0 },
		"missing node addr":   func(tc *TopologyConfig) { delete(tc.Nodes, 2) },
		"orphan node":         func(tc *TopologyConfig) { tc.Nodes[9] = NodeAddr{UDP: []string{"x:1"}} },
		"node with no UDP":    func(tc *TopologyConfig) { tc.Nodes[2] = NodeAddr{} },
		"zero-node in a link": func(tc *TopologyConfig) { tc.Links[0].A = 0 },
		"duplicate link": func(tc *TopologyConfig) {
			tc.Links = append(tc.Links, LinkDef{A: tc.Links[0].B, B: tc.Links[0].A, LatencyMs: 7})
		},
	}
	for name, mutate := range cases {
		tc := validTopo()
		mutate(&tc)
		if _, err := GenerateConfigs(tc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNewDaemonRefusesBadLinks: a hand-written config is held to the rule
// GenerateConfigs applies — a negative latency would be a negative edge
// weight to SPF, node 0 is no node, and a second 1–2 link would be one no
// hello probes — by the graph it builds.
func TestNewDaemonRefusesBadLinks(t *testing.T) {
	for name, links := range map[string][]LinkDef{
		"negative latency": {{A: 1, B: 2, LatencyMs: -5}},
		"zero endpoint":    {{A: 0, B: 1, LatencyMs: 5}},
		"duplicate link":   {{A: 1, B: 2, LatencyMs: 5}, {A: 2, B: 1, LatencyMs: 7}},
	} {
		d, err := NewDaemon(DaemonConfig{ID: 1, BindUDP: "127.0.0.1:0", Links: links})
		if err == nil {
			d.Close()
			t.Errorf("%s: NewDaemon accepted links %+v", name, links)
		}
	}
}

func TestGeneratedConfigsBootDaemons(t *testing.T) {
	// Generate loopback configs and actually boot the deployment.
	tc := TopologyConfig{
		Links: []LinkDef{{A: 1, B: 2, LatencyMs: 1}},
		Nodes: map[wire.NodeID]NodeAddr{
			1: {UDP: []string{"127.0.0.1:17831"}},
			2: {UDP: []string{"127.0.0.1:17832"}},
		},
		HelloIntervalMs: 20,
	}
	cfgs, err := GenerateConfigs(tc)
	if err != nil {
		t.Fatalf("GenerateConfigs: %v", err)
	}
	for id, cfg := range cfgs {
		d, err := NewDaemon(cfg)
		if err != nil {
			t.Fatalf("NewDaemon(%v): %v", id, err)
		}
		t.Cleanup(d.Close)
	}
}
