package itmsg

import (
	"testing"

	"sonet/internal/wire"
)

func testNodes() []wire.NodeID { return []wire.NodeID{1, 2, 3, 4} }

func TestSignVerifyRoundTrip(t *testing.T) {
	seed := []byte("deployment-seed")
	k1 := NewDeterministicKeyring(1, testNodes(), seed)
	k2 := NewDeterministicKeyring(2, testNodes(), seed)
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteFlood, Src: 1, Dst: 2, FlowSeq: 9, Payload: []byte("cmd")}
	if err := k1.SignPacket(p); err != nil {
		t.Fatalf("SignPacket: %v", err)
	}
	if !p.Flags.Has(wire.FSigned) {
		t.Fatal("FSigned not set")
	}
	if !k2.VerifyPacket(p) {
		t.Fatal("valid signature rejected")
	}
	// TTL changes en route must not break the signature.
	p.TTL--
	if !k2.VerifyPacket(p) {
		t.Fatal("signature broke on TTL decrement")
	}
}

func TestVerifyRejectsTampering(t *testing.T) {
	seed := []byte("deployment-seed")
	k1 := NewDeterministicKeyring(1, testNodes(), seed)
	k2 := NewDeterministicKeyring(2, testNodes(), seed)
	p := &wire.Packet{Type: wire.PTData, Src: 1, Dst: 2, Payload: []byte("open valve 7")}
	if err := k1.SignPacket(p); err != nil {
		t.Fatalf("SignPacket: %v", err)
	}
	tampered := p.Clone()
	tampered.Payload[5] ^= 0xff
	if k2.VerifyPacket(tampered) {
		t.Fatal("tampered payload accepted")
	}
	spoofed := p.Clone()
	spoofed.Src = 3 // claim another origin
	if k2.VerifyPacket(spoofed) {
		t.Fatal("spoofed source accepted")
	}
	unsigned := p.Clone()
	unsigned.Sig = nil
	unsigned.Flags &^= wire.FSigned
	if k2.VerifyPacket(unsigned) {
		t.Fatal("unsigned packet accepted")
	}
}

func TestVerifyRejectsUnknownOrigin(t *testing.T) {
	seed := []byte("s")
	kAll := NewDeterministicKeyring(1, testNodes(), seed)
	kRogue := NewDeterministicKeyring(99, []wire.NodeID{99}, seed)
	p := &wire.Packet{Type: wire.PTData, Src: 99, Payload: []byte("x")}
	if err := kRogue.SignPacket(p); err != nil {
		t.Fatalf("SignPacket: %v", err)
	}
	if kAll.VerifyPacket(p) {
		t.Fatal("signature from unknown node accepted")
	}
}

func TestDifferentSeedsDoNotInteroperate(t *testing.T) {
	k1 := NewDeterministicKeyring(1, testNodes(), []byte("a"))
	k2 := NewDeterministicKeyring(2, testNodes(), []byte("b"))
	p := &wire.Packet{Type: wire.PTData, Src: 1, Payload: []byte("x")}
	if err := k1.SignPacket(p); err != nil {
		t.Fatalf("SignPacket: %v", err)
	}
	if k2.VerifyPacket(p) {
		t.Fatal("cross-deployment signature accepted")
	}
}

func TestMacFrameRoundTrip(t *testing.T) {
	seed := []byte("deployment-seed")
	k1 := NewDeterministicKeyring(1, testNodes(), seed)
	k2 := NewDeterministicKeyring(2, testNodes(), seed)
	f := &wire.Frame{Proto: wire.LPITPriority, Kind: wire.FData, Seq: 5, Packet: &wire.Packet{Type: wire.PTData, Src: 1}}
	if err := k1.MacFrame(f, 2); err != nil {
		t.Fatalf("MacFrame: %v", err)
	}
	if !k2.VerifyFrame(f, 1) {
		t.Fatal("valid MAC rejected")
	}
	f.Seq = 6
	if k2.VerifyFrame(f, 1) {
		t.Fatal("tampered frame accepted")
	}
}

func TestMacFrameWrongPeerRejected(t *testing.T) {
	seed := []byte("deployment-seed")
	k1 := NewDeterministicKeyring(1, testNodes(), seed)
	k3 := NewDeterministicKeyring(3, testNodes(), seed)
	f := &wire.Frame{Proto: wire.LPITPriority, Kind: wire.FData, Seq: 5}
	if err := k1.MacFrame(f, 2); err != nil {
		t.Fatalf("MacFrame: %v", err)
	}
	// Node 3 checking as if the frame came over the 1-3 link must fail:
	// the MAC was keyed for the 1-2 link.
	if k3.VerifyFrame(f, 1) {
		t.Fatal("MAC for another link accepted")
	}
}

func TestMacFrameUnknownPeer(t *testing.T) {
	k1 := NewDeterministicKeyring(1, testNodes(), []byte("s"))
	f := &wire.Frame{Kind: wire.FData}
	if err := k1.MacFrame(f, 77); err == nil {
		t.Fatal("MacFrame for unknown peer succeeded")
	}
	if k1.VerifyFrame(f, 77) {
		t.Fatal("VerifyFrame for unknown peer succeeded")
	}
}

// TestVerifyPacketAllocBudget pins the signing path's allocations: the
// canonical encoding comes from a pooled buffer on both sides, so
// verifying allocates nothing and signing only the signature.
func TestVerifyPacketAllocBudget(t *testing.T) {
	seed := []byte("deployment-seed")
	k1 := NewDeterministicKeyring(1, testNodes(), seed)
	k2 := NewDeterministicKeyring(2, testNodes(), seed)
	p := &wire.Packet{Type: wire.PTData, Src: 1, Dst: 2, FlowSeq: 9, Payload: make([]byte, 1200)}
	if avg := testing.AllocsPerRun(200, func() { _ = k1.SignPacket(p) }); avg > 1 {
		t.Fatalf("SignPacket allocates %.2f allocs/op, budget is 1", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if !k2.VerifyPacket(p) {
			t.Fatal("valid signature rejected")
		}
	}); avg > 0 {
		t.Fatalf("VerifyPacket allocates %.2f allocs/op, budget is 0", avg)
	}
}
