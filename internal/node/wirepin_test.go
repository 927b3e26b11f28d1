package node

import (
	"encoding/hex"
	"testing"
	"time"

	"sonet/internal/itmsg"
	"sonet/internal/linkstate"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// pinUnderlay keeps the first data frame carrying a data packet.
type pinUnderlay struct{ first []byte }

func (u *pinUnderlay) Send(_ wire.NodeID, _ uint8, data []byte) {
	f, _, err := wire.UnmarshalFrame(data)
	if u.first == nil && err == nil && f.Kind == wire.FData && f.Packet != nil && f.Packet.Type == wire.PTData {
		u.first = append([]byte(nil), data...)
	}
}

func (u *pinUnderlay) PathCount(wire.NodeID) int { return 1 }

// TestWireFormatPinned pins what a peer receives: for each link service as
// DataShard.protoFor builds it, the first data frame an authenticated node
// transmits for one fixed packet at one fixed virtual time is byte for
// byte what the binary of PR 20 sent. A link-level refactor moves none of
// these; a deliberate wire change updates the table and says so.
func TestWireFormatPinned(t *testing.T) {
	want := map[wire.LinkProtoID]string{
		wire.LPBestEffort:   "0101030000000000000000000000000000000000000000000ee6b2802090f3bb5a8adc14e378f80227698f45c67b3f53603bcdf1f54d51afd6064b3a7001081f01010300010002002802bc0000000000000009000000000ee6b280000000000bebc2000000000e70696e6e6564207061796c6f6164",
		wire.LPReliable:     "0201030000000001000000000000000000000000000000000ee6b2802013bf72c2e1b632303330be846d355c033037aab87b7ffdab503cf81119b42ebe01081f01020300010002002802bc0000000000000009000000000ee6b280000000000bebc2000000000e70696e6e6564207061796c6f6164",
		wire.LPRealTime:     "0301030000000001000000000000000000000000000000000ee6b280209f4d133c99e275caad5e29645957bb1876b124741a688559e807be75882f75c101081f01030300010002002802bc0000000000000009000000000ee6b280000000000bebc2000000000e70696e6e6564207061796c6f6164",
		wire.LPSingleStrike: "0401030000000001000000000000000000000000000000000ee6b280204f62a6575891f15f9820542036e2adac92d9315cae3a25f203dfe8a83a63bf9c01081f01040300010002002802bc0000000000000009000000000ee6b280000000000bebc2000000000e70696e6e6564207061796c6f6164",
		wire.LPITPriority:   "0501030000000000000000000000000000000000000000000ef5f4c0209bcfcf4dad07b52dd484dfb61e5b184f866530dfa79ff73f7747cf38ef024e4701091f01050300010002002802bc0000000000000009000000000ee6b280000000000bebc20000404e87b76f36cacda24b0d5cc35b769163a6b4d35b12af9d5c26ec703066c05bfc85485efa95d7b023400670a0f8fe811bcbe5ddb7e3ea3219777c11875af4a80f000e70696e6e6564207061796c6f6164",
		wire.LPITReliable:   "0601030000000001000000000000000000000000000000000ef5f4c0208cef64e485a5c30bb66029c5550905dfa3d483ef2240e2056b0a028dad3c568001091f01060300010002002802bc0000000000000009000000000ee6b280000000000bebc200004051157d91190cd49652787012c4eb5310f656c43432e326975fb362d5b9d0c415b787867e29399f3b185f01ede24a3d49fa41e9dd63fab3deaf8bd7aa11422f0b000e70696e6e6564207061796c6f6164",
	}
	for id, frame := range want {
		g := topology.NewGraph()
		if _, err := g.AddLink(1, 2, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		sched := sim.NewScheduler(1)
		under := &pinUnderlay{}
		n, err := New(Config{
			ID: 1, Clock: sched, Underlay: under, Graph: g,
			Metric:    topology.LatencyMetric,
			LinkState: linkstate.Config{HelloInterval: time.Hour},
			Keyring:   itmsg.NewDeterministicKeyring(1, g.Nodes(), []byte("wire pin")),
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Start()
		sched.RunFor(250 * time.Millisecond)
		err = n.Originate(&wire.Packet{
			Type: wire.PTData, Route: wire.RouteLinkState, LinkProto: id,
			Priority: 3, Flags: wire.FOrdered, Dst: 2, SrcPort: 40, DstPort: 700,
			FlowSeq: 9, Deadline: 200 * time.Millisecond, Payload: []byte("pinned payload"),
		})
		if err != nil {
			t.Fatalf("%v: %v", id, err)
		}
		// The paced services transmit on their pacer's first turn.
		sched.RunFor(10 * time.Millisecond)
		n.Stop()
		got := hex.EncodeToString(under.first)
		if got != frame {
			t.Errorf("%v frame\n got %s\nwant %s", id, got, frame)
		}
	}
}
