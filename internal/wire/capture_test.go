package wire

import (
	"bytes"
	"testing"
)

func TestCapturePacketCopiesBytes(t *testing.T) {
	pool := NewBufPool(nil)
	src := &Packet{
		Type: PTData, Route: RouteLinkState,
		Src: 3, Dst: 9, FlowSeq: 42, Priority: 5,
		Sig:     []byte("signature"),
		Payload: []byte("hello-capture"),
	}
	var dst Packet
	buf := CapturePacket(&dst, src, pool)
	if buf == nil {
		t.Fatal("expected a backing buffer")
	}
	// Mutate the source's byte fields: the capture must be unaffected.
	src.Payload[0] = 'X'
	src.Sig[0] = 'X'
	if !bytes.Equal(dst.Payload, []byte("hello-capture")) || !bytes.Equal(dst.Sig, []byte("signature")) {
		t.Fatalf("capture aliases source bytes: payload %q sig %q", dst.Payload, dst.Sig)
	}
	if dst.Src != 3 || dst.Dst != 9 || dst.FlowSeq != 42 || dst.Priority != 5 {
		t.Fatalf("header not copied: %+v", dst)
	}
	// Sig and Payload are full-capacity subslices of one buffer: appending
	// to Sig must not bleed into Payload.
	if cap(dst.Sig) != len(dst.Sig) || cap(dst.Payload) != len(dst.Payload) {
		t.Fatalf("subslices not capacity-clamped: sig %d/%d payload %d/%d",
			len(dst.Sig), cap(dst.Sig), len(dst.Payload), cap(dst.Payload))
	}
	if buf.released {
		t.Fatal("capture buffer handed out released")
	}
	buf.Release()
	if got := pool.Stats().Recycled.Load(); got == 0 {
		t.Fatal("release did not recycle the capture buffer")
	}
}

func TestCapturePacketByteless(t *testing.T) {
	pool := NewBufPool(nil)
	src := &Packet{Type: PTHello, Src: 1, Dst: 2}
	var dst Packet
	if buf := CapturePacket(&dst, src, pool); buf != nil {
		t.Fatal("byteless packet should not take a pool buffer")
	}
	if dst.Sig != nil || dst.Payload != nil {
		t.Fatalf("byteless capture kept slices: %+v", dst)
	}
	if dst.Src != 1 || dst.Dst != 2 || dst.Type != PTHello {
		t.Fatalf("header not copied: %+v", dst)
	}
	if got := pool.Stats().Misses.Load() + pool.Stats().Hits.Load(); got != 0 {
		t.Fatalf("pool touched %d times for byteless packet", got)
	}
}

func TestCapturePacketSigOnly(t *testing.T) {
	pool := NewBufPool(nil)
	src := &Packet{Type: PTData, Sig: []byte("only-sig")}
	var dst Packet
	buf := CapturePacket(&dst, src, pool)
	if buf == nil || !bytes.Equal(dst.Sig, []byte("only-sig")) || dst.Payload != nil {
		t.Fatalf("sig-only capture wrong: sig %q payload %v", dst.Sig, dst.Payload)
	}
	buf.Release()
}

// TestCaptureIntoReusesBytes captures twice into the same bytes: the
// second, smaller packet overwrites the first in place, and a larger one
// grows them.
func TestCaptureIntoReusesBytes(t *testing.T) {
	var dst Packet
	first := &Packet{Type: PTData, FlowSeq: 1, Sig: []byte("sig"), Payload: bytes.Repeat([]byte{7}, 100)}
	b := CaptureInto(&dst, first, nil)
	first.Payload[0], first.Sig[0] = 0, 0
	if !bytes.Equal(dst.Sig, []byte("sig")) || len(dst.Payload) != 100 || dst.Payload[0] != 7 ||
		cap(dst.Sig) != 3 || cap(dst.Payload) != 100 {
		t.Fatalf("first capture wrong: sig %q payload %d bytes", dst.Sig, len(dst.Payload))
	}
	second := &Packet{Type: PTData, FlowSeq: 2, Payload: []byte("small")}
	allocs := testing.AllocsPerRun(100, func() { b = CaptureInto(&dst, second, b) })
	if allocs != 0 || dst.FlowSeq != 2 || dst.Sig != nil || string(dst.Payload) != "small" || &b[0] != &dst.Payload[0] {
		t.Fatalf("reuse allocated %.0f times or captured wrong: %+v", allocs, dst)
	}
	big := &Packet{Type: PTData, Payload: bytes.Repeat([]byte{9}, 4*cap(b))}
	b = CaptureInto(&dst, big, b)
	if !bytes.Equal(dst.Payload, big.Payload) || cap(b) < len(big.Payload) {
		t.Fatal("growing capture lost bytes")
	}
	if b = CaptureInto(&dst, &Packet{Type: PTHello}, b); dst.Sig != nil || dst.Payload != nil || len(b) != 0 {
		t.Fatalf("byteless capture kept slices: %+v", dst)
	}
}
