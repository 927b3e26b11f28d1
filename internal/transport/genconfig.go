package transport

import (
	"fmt"
	"sort"

	"sonet/internal/wire"
)

// TopologyConfig is the single shared description of a deployment from
// which every daemon's DaemonConfig is generated: the overlay links plus
// each node's addresses.
type TopologyConfig struct {
	// Links is the designed overlay topology.
	Links []LinkDef `json:"links"`
	// Nodes maps each overlay node to its deployment addresses.
	Nodes map[wire.NodeID]NodeAddr `json:"nodes"`
	// HelloIntervalMs optionally overrides failure detection everywhere.
	HelloIntervalMs int `json:"hello_interval_ms"`
	// Shards optionally sets every daemon's data-plane shard count
	// (0 means one shard per core, capped — see DaemonConfig.Shards).
	Shards int `json:"shards"`
}

// NodeAddr is one node's bind and advertised addresses.
type NodeAddr struct {
	// UDP is the node's frame address, both bound and advertised to
	// peers. Additional entries express multihoming (one per provider).
	UDP []string `json:"udp"`
	// TCP is the client listener bind address; empty disables clients.
	TCP string `json:"tcp"`
}

// GenerateConfigs expands a shared topology into one DaemonConfig per
// node, validating that every link endpoint has addresses, that every
// node appears in the topology, and that the links are ones every daemon
// will take: checkLinks, plus a positive latency.
func GenerateConfigs(tc TopologyConfig) (map[wire.NodeID]DaemonConfig, error) {
	if len(tc.Links) == 0 {
		return nil, fmt.Errorf("transport: topology has no links")
	}
	if err := checkLinks(tc.Links); err != nil {
		return nil, err
	}
	inTopo := make(map[wire.NodeID]bool)
	for _, l := range tc.Links {
		if l.LatencyMs <= 0 {
			return nil, fmt.Errorf("transport: link %v-%v needs a positive latency", l.A, l.B)
		}
		inTopo[l.A] = true
		inTopo[l.B] = true
	}
	ids := make([]wire.NodeID, 0, len(inTopo))
	for id := range inTopo {
		if _, ok := tc.Nodes[id]; !ok {
			return nil, fmt.Errorf("transport: node %v has no addresses", id)
		}
		ids = append(ids, id)
	}
	for id := range tc.Nodes {
		if !inTopo[id] {
			return nil, fmt.Errorf("transport: node %v has addresses but no links", id)
		}
		if len(tc.Nodes[id].UDP) == 0 {
			return nil, fmt.Errorf("transport: node %v needs at least one UDP address", id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	out := make(map[wire.NodeID]DaemonConfig, len(ids))
	for _, id := range ids {
		peers := make(map[wire.NodeID][]string, len(ids)-1)
		for _, peer := range ids {
			if peer == id {
				continue
			}
			peers[peer] = append([]string(nil), tc.Nodes[peer].UDP...)
		}
		out[id] = DaemonConfig{
			ID:              id,
			BindUDP:         tc.Nodes[id].UDP[0],
			BindTCP:         tc.Nodes[id].TCP,
			Peers:           peers,
			Links:           append([]LinkDef(nil), tc.Links...),
			HelloIntervalMs: tc.HelloIntervalMs,
			Shards:          tc.Shards,
		}
	}
	return out, nil
}
