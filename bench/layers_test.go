//go:build sonet_layers

package main

import (
	"testing"

	"sonet"
	"sonet/internal/wire"
)

// TestHomeShardMirrorsWire pins the harness's copy of the daemon's peer
// homing, which the untagged files cannot import, to the real function.
func TestHomeShardMirrorsWire(t *testing.T) {
	for shards := 1; shards <= 8; shards++ {
		for id := sonet.NodeID(1); id <= 300; id++ {
			if got, want := homeShard(id, shards), wire.HomeShard(id, shards); got != want {
				t.Fatalf("homeShard(%d, %d) = %d, wire.HomeShard = %d", id, shards, got, want)
			}
		}
	}
}

// TestTracedSmoke runs the traced run of one socket workload and one
// emulated workload at 1/50 scale and checks that every per-layer metric
// is reported by name with its unit, and nothing else.
func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"chain3-small-reliable", "emu-churn-64"} {
		t.Run(name, func(t *testing.T) {
			res, err := runTraced(findWorkload(name), smokeConfig(name, 5))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range perLayer {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("metric %s missing", m.Name)
				} else if v.Unit != m.Unit {
					t.Errorf("metric %s in %q, want %q", m.Name, v.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want the %d per-layer ones", len(res.Metrics), len(perLayer))
			}
			if name == "chain3-small-reliable" {
				if v := res.Metrics["transport.handoffs"].Value; v != 0 {
					t.Errorf("transport.handoffs = %v: the steered ports no longer land frames on their home shard", v)
				}
				if v := res.Metrics["node.handle_self_ns"].Value; !(v > 0) {
					t.Errorf("node.handle_self_ns = %v: the traced relay recorded no handler spans", v)
				}
			}
		})
	}
}
