package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestFrameRoundTripControl(t *testing.T) {
	f := &Frame{
		Proto:    LPReliable,
		Kind:     FAck,
		Seq:      42,
		Ack:      40,
		AckBits:  0b1011,
		SendTime: 123 * time.Millisecond,
	}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, rest, err := UnmarshalFrame(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("UnmarshalFrame: %v (rest %d)", err, len(rest))
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", f, got)
	}
}

func TestFrameRoundTripWithPacketAndAuth(t *testing.T) {
	f := &Frame{
		Proto:    LPITPriority,
		Kind:     FData,
		Seq:      7,
		SendTime: time.Second,
		Auth:     bytes.Repeat([]byte{0xcd}, 32),
		Packet:   samplePacket(),
	}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, rest, err := UnmarshalFrame(buf)
	if err != nil || len(rest) != 0 {
		t.Fatalf("UnmarshalFrame: %v (rest %d)", err, len(rest))
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", f, got)
	}
}

func TestFrameTruncated(t *testing.T) {
	f := &Frame{Proto: LPBestEffort, Kind: FData, Packet: samplePacket(), Auth: []byte{1, 2, 3, 4}}
	buf, err := f.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	for n := 0; n < len(buf); n++ {
		if _, _, err := UnmarshalFrame(buf[:n]); err == nil {
			t.Fatalf("UnmarshalFrame accepted %d/%d-byte prefix", n, len(buf))
		}
	}
}

func TestUnmarshalFrameNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, r.Intn(300))
		r.Read(buf)
		_, _, _ = UnmarshalFrame(buf) // must not panic
	}
}

func TestAuthableBytesIgnoresAuth(t *testing.T) {
	f := &Frame{Proto: LPITReliable, Kind: FData, Seq: 5, Packet: samplePacket()}
	a, err := f.AppendAuthable(nil)
	if err != nil {
		t.Fatalf("AppendAuthable: %v", err)
	}
	f.Auth = bytes.Repeat([]byte{9}, 32)
	b, err := f.AppendAuthable(nil)
	if err != nil {
		t.Fatalf("AppendAuthable: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("authable encoding changed when Auth set")
	}
	f.Seq = 6
	c, err := f.AppendAuthable(nil)
	if err != nil {
		t.Fatalf("AppendAuthable: %v", err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("authable encoding did not cover Seq")
	}
}

// pooledRoundTrip is the marshal/decode cycle a forwarding hop performs:
// draw a buffer from the shared pool, AppendMarshal a video-sized frame
// into it, decode it back through the zero-copy scratch decoder, and
// release the buffer.
func pooledRoundTrip(tb testing.TB) func() {
	p := videoPacket()
	p.LinkProto = LPBestEffort
	f := &Frame{Proto: LPBestEffort, Kind: FData, Seq: 1, Packet: p}
	var rxf Frame
	var rxp Packet
	return func() {
		buf := DefaultBufPool.Get(f.MarshaledSize())
		out, err := f.AppendMarshal(buf.B)
		if err != nil {
			tb.Fatal(err)
		}
		buf.B = out
		if _, err := UnmarshalFrameInto(&rxf, &rxp, out); err != nil {
			tb.Fatal(err)
		}
		buf.Release()
	}
}

// BenchmarkMarshalAlloc measures the pooled round trip and the shared
// pool's hit ratio under it.
func BenchmarkMarshalAlloc(b *testing.B) {
	roundTrip := pooledRoundTrip(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	b.StopTimer()
	b.ReportMetric(PoolSnapshot().HitRatio(), "pool-hit-ratio")
}

// TestMarshalAllocBudget is the regression guard for the allocation-free
// fast path (`make bench-guard`): a warmed pooled round trip allocates
// nothing.
func TestMarshalAllocBudget(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation budget not measurable under -race")
	}
	roundTrip := pooledRoundTrip(t)
	roundTrip()
	if avg := testing.AllocsPerRun(200, roundTrip); avg > 0 {
		t.Fatalf("pooled marshal/decode round trip allocates %.2f allocs/op, budget is 0", avg)
	}
}
