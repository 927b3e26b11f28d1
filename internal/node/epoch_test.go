package node

import (
	"testing"
	"time"

	"sonet/internal/link"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// TestPeerEpochResetsLinkEndpoints injects into node 1 a hello from node 2
// whose link-session epoch is ahead of the one node 1 holds, as a peer
// that restarted its sessions unseen sends it. Node 1 must rebuild its
// Reliable endpoint toward node 2 — linkstate's reset hook reaching the
// data plane — and, once the handshake settles, a Reliable stream across
// the link delivers every message, before the reset and after it.
func TestPeerEpochResetsLinkEndpoints(t *testing.T) {
	g := topology.NewGraph()
	if _, err := g.AddLink(1, 2, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	f := buildWorld(t, g, nil)
	got := collect(f.nodes[2])
	f.sched.RunFor(500 * time.Millisecond)
	seq := uint32(0)
	stream := func(n int) {
		for range n {
			seq++
			if err := f.nodes[1].Originate(&wire.Packet{
				Type: wire.PTData, Route: wire.RouteLinkState,
				LinkProto: wire.LPReliable, Dst: 2, DstPort: 7, FlowSeq: seq,
				Payload: []byte{byte(seq)},
			}); err != nil {
				t.Fatal(err)
			}
			f.sched.RunFor(time.Millisecond)
		}
		f.sched.RunFor(200 * time.Millisecond)
	}
	endpoint := func() link.Protocol { return f.nodes[1].ctl.peers.At(2).protos[wire.LPReliable] }

	stream(20)
	before := endpoint()
	if before == nil || len(*got) != 20 {
		t.Fatalf("premise: %d of 20 delivered, endpoint %v", len(*got), before)
	}
	hello := wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FHello, Seq: 5 << 8, SendTime: f.sched.Now()}
	b, err := hello.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f.nodes[1].HandleUnderlay(2, b)
	if endpoint() != nil {
		t.Fatal("the Reliable endpoint toward node 2 survived a peer epoch ahead of node 1's")
	}
	f.sched.RunFor(300 * time.Millisecond) // node 2 adopts node 1's new epoch from its hellos
	stream(20)
	if after := endpoint(); after == nil || after == before {
		t.Fatal("node 1 still sends on the endpoint it had before the reset")
	}
	if len(*got) != 40 {
		t.Fatalf("delivered %d of 40 messages across the reset", len(*got))
	}
	for i, p := range *got {
		if p.FlowSeq != uint32(i+1) {
			t.Fatalf("delivery %d is message %d", i, p.FlowSeq)
		}
	}
}
