package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func samplePacket() *Packet {
	var mask Bitmask
	mask.Set(3)
	mask.Set(77)
	mask.Set(255)
	return &Packet{
		Type:      PTData,
		Flags:     FSigned | FRetrans,
		TTL:       16,
		Route:     RouteSourceMask,
		LinkProto: LPRealTime,
		Priority:  7,
		Src:       2,
		Dst:       9,
		SrcPort:   5000,
		DstPort:   6000,
		Group:     0xdeadbeef,
		FlowSeq:   123456,
		Origin:    1500 * time.Millisecond,
		Deadline:  200 * time.Millisecond,
		Mask:      mask,
		Sig:       bytes.Repeat([]byte{0xab}, 64),
		Payload:   []byte("broadcast-quality video frame"),
	}
}

func TestPacketRoundTrip(t *testing.T) {
	p := samplePacket()
	buf, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if len(buf) != p.MarshaledSize() {
		t.Fatalf("encoded %d bytes, MarshaledSize = %d", len(buf), p.MarshaledSize())
	}
	got, rest, err := UnmarshalPacket(buf)
	if err != nil {
		t.Fatalf("UnmarshalPacket: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("trailing %d bytes", len(rest))
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
	}
}

func TestPacketRoundTripMinimal(t *testing.T) {
	p := &Packet{Type: PTHello, Route: RouteLinkState, Src: 1, Dst: 2}
	buf, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, _, err := UnmarshalPacket(buf)
	if err != nil {
		t.Fatalf("UnmarshalPacket: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", p, got)
	}
}

func TestPacketRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			p := &Packet{
				Type:      PacketType(1 + r.Intn(6)),
				Flags:     Flags(r.Intn(8)),
				TTL:       uint8(r.Intn(256)),
				Route:     RouteKind(1 + r.Intn(4)),
				LinkProto: LinkProtoID(1 + r.Intn(6)),
				Priority:  uint8(r.Intn(256)),
				Src:       NodeID(r.Intn(1 << 16)),
				Dst:       NodeID(r.Intn(1 << 16)),
				SrcPort:   Port(r.Intn(1 << 16)),
				DstPort:   Port(r.Intn(1 << 16)),
				Group:     GroupID(r.Uint32()),
				FlowSeq:   r.Uint32(),
				Origin:    time.Duration(r.Int63()),
				Deadline:  time.Duration(r.Int63()),
			}
			for i := 0; i < r.Intn(20); i++ {
				p.Mask.Set(LinkID(r.Intn(MaxLinks)))
			}
			if r.Intn(2) == 1 {
				p.Sig = make([]byte, 1+r.Intn(64))
				r.Read(p.Sig)
			}
			if r.Intn(4) != 0 {
				p.Payload = make([]byte, 1+r.Intn(1400))
				r.Read(p.Payload)
			}
			vals[0] = reflect.ValueOf(p)
		},
	}
	prop := func(p *Packet) bool {
		buf, err := p.Marshal()
		if err != nil {
			return false
		}
		got, rest, err := UnmarshalPacket(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return reflect.DeepEqual(p, got)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalPacketTruncated(t *testing.T) {
	p := samplePacket()
	buf, err := p.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for n := 0; n < len(buf); n++ {
		if _, _, err := UnmarshalPacket(buf[:n]); err == nil {
			t.Fatalf("UnmarshalPacket accepted %d/%d-byte prefix", n, len(buf))
		}
	}
}

func TestUnmarshalPacketNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, r.Intn(200))
		r.Read(buf)
		_, _, _ = UnmarshalPacket(buf) // must not panic
	}
}

func TestPacketPayloadTooLarge(t *testing.T) {
	p := &Packet{Type: PTData, Payload: make([]byte, MaxPayload+1)}
	if _, err := p.Marshal(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Marshal error = %v, want ErrTooLarge", err)
	}
}

func TestPacketClone(t *testing.T) {
	p := samplePacket()
	cp := p.Clone()
	if !reflect.DeepEqual(p, cp) {
		t.Fatal("clone differs from original")
	}
	cp.Payload[0] ^= 0xff
	cp.Sig[0] ^= 0xff
	cp.TTL--
	cp.Mask.Set(100)
	if p.Payload[0] == cp.Payload[0] || p.Sig[0] == cp.Sig[0] {
		t.Fatal("clone shares payload or signature storage")
	}
	if p.Mask.Has(100) {
		t.Fatal("clone shares mask")
	}
}

func TestSignableBytesIgnoresTTLAndSig(t *testing.T) {
	p := samplePacket()
	a, err := p.AppendSignable(nil)
	if err != nil {
		t.Fatalf("AppendSignable: %v", err)
	}
	q := p.Clone()
	q.TTL = 3
	q.Sig = []byte{1, 2, 3}
	b, err := q.AppendSignable(nil)
	if err != nil {
		t.Fatalf("AppendSignable: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("signable encoding changed with TTL/Sig mutation")
	}
	q.Payload[0] ^= 0xff
	c, err := q.AppendSignable(nil)
	if err != nil {
		t.Fatalf("AppendSignable: %v", err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("signable encoding did not change with payload mutation")
	}
}

func TestStringMnemonics(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{PTData.String(), "data"},
		{PTLinkState.String(), "linkstate"},
		{PTGroupState.String(), "groupstate"},
		{PTHello.String(), "hello"},
		{PTHelloAck.String(), "helloack"},
		{PTSessionCtl.String(), "sessionctl"},
		{PacketType(99).String(), "pt(99)"},
		{RouteLinkState.String(), "linkstate"},
		{RouteSourceMask.String(), "sourcemask"},
		{RouteMulticast.String(), "multicast"},
		{RouteFlood.String(), "flood"},
		{RouteKind(99).String(), "route(99)"},
		{LPBestEffort.String(), "besteffort"},
		{LPReliable.String(), "reliable"},
		{LPRealTime.String(), "realtime"},
		{LPSingleStrike.String(), "singlestrike"},
		{LPITPriority.String(), "it-priority"},
		{LPITReliable.String(), "it-reliable"},
		{LinkProtoID(99).String(), "lp(99)"},
		{FData.String(), "data"},
		{FAck.String(), "ack"},
		{FReq.String(), "req"},
		{FHello.String(), "hello"},
		{FHelloAck.String(), "helloack"},
		{FrameKind(99).String(), "fk(99)"},
		{NodeID(7).String(), "n7"},
		{GroupID(9).String(), "g9"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestFlagsHas(t *testing.T) {
	f := FSigned | FOrdered
	if !f.Has(FSigned) || !f.Has(FOrdered) || !f.Has(FSigned|FOrdered) {
		t.Fatal("Has missed set flags")
	}
	if f.Has(FRetrans) || f.Has(FSigned|FRetrans) {
		t.Fatal("Has reported unset flags")
	}
}

func TestFrameOversizedAuth(t *testing.T) {
	f := &Frame{Proto: LPReliable, Kind: FData, Auth: make([]byte, 256)}
	if _, err := f.Marshal(); err == nil {
		t.Fatal("256-byte auth accepted")
	}
	p := &Packet{Type: PTData, Sig: make([]byte, 256)}
	if _, err := p.Marshal(); err == nil {
		t.Fatal("256-byte signature accepted")
	}
}

// videoPacket is the 1200-byte link-state data packet the codec
// benchmarks and allocation budgets encode.
func videoPacket() *Packet {
	return &Packet{
		Type: PTData, Route: RouteLinkState,
		LinkProto: LPReliable, TTL: 32,
		Src: 1, Dst: 3, FlowSeq: 77,
		Payload: make([]byte, 1200),
	}
}

// BenchmarkPacketMarshal measures wire encoding of a video-sized packet.
func BenchmarkPacketMarshal(b *testing.B) {
	p := videoPacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketUnmarshal measures wire decoding.
func BenchmarkPacketUnmarshal(b *testing.B) {
	buf, err := videoPacket().Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := UnmarshalPacket(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPacketMarshalAllocBudget pins the unpooled encoder at its one
// allocation, the output buffer (`make bench-guard`).
func TestPacketMarshalAllocBudget(t *testing.T) {
	p := videoPacket()
	if avg := testing.AllocsPerRun(200, func() { _, _ = p.Marshal() }); avg > 1 {
		t.Fatalf("Packet.Marshal allocates %.2f allocs/op, budget is 1", avg)
	}
}

// TestPacketUnmarshalAllocBudget pins the copying decoder at its two
// allocations, the Packet and its private payload (`make bench-guard`).
func TestPacketUnmarshalAllocBudget(t *testing.T) {
	buf, err := videoPacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() { _, _, _ = UnmarshalPacket(buf) }); avg > 2 {
		t.Fatalf("UnmarshalPacket allocates %.2f allocs/op, budget is 2", avg)
	}
}
