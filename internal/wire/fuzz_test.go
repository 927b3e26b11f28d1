package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzUnmarshalPacket checks the packet decoder never panics, that it
// refuses a link protocol above LPITReliable (zero, a control packet's
// unset one, is accepted), and that any successfully decoded packet
// re-encodes and decodes to the same value.
func FuzzUnmarshalPacket(f *testing.F) {
	seed, err := samplePacket().Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, packetFixedLen))
	for _, lp := range []byte{0, byte(LPITReliable) + 1, 0xff} {
		b := bytes.Clone(seed)
		b[4] = lp
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, _, err := UnmarshalPacket(data)
		if len(data) > 4 && data[4] > byte(LPITReliable) && err == nil {
			t.Fatalf("decoded a packet with link protocol %d", data[4])
		}
		if err != nil {
			return
		}
		buf, err := p.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of decoded packet failed: %v", err)
		}
		q, rest, err := UnmarshalPacket(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-decode failed: %v (rest %d)", err, len(rest))
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("decode/encode not idempotent:\n p: %+v\n q: %+v", p, q)
		}
	})
}

// FuzzUnmarshalFrame checks the frame decoder the same way; a frame's
// link protocol must be one of the defined ones, zero included in what it
// refuses.
func FuzzUnmarshalFrame(f *testing.F) {
	fr := &Frame{Proto: LPReliable, Kind: FData, Seq: 3, Packet: samplePacket()}
	seed, err := fr.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, frameFixedLen))
	for _, lp := range []byte{0, byte(LPITReliable) + 1, 0xff} {
		b := bytes.Clone(seed)
		b[0] = lp
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := UnmarshalFrame(data)
		if len(data) > 0 && (data[0] < byte(LPBestEffort) || data[0] > byte(LPITReliable)) && err == nil {
			t.Fatalf("decoded a frame with link protocol %d", data[0])
		}
		if err != nil {
			return
		}
		buf, err := g.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of decoded frame failed: %v", err)
		}
		h, rest, err := UnmarshalFrame(buf)
		if err != nil || len(rest) != 0 {
			t.Fatalf("re-decode failed: %v (rest %d)", err, len(rest))
		}
		if !reflect.DeepEqual(g, h) {
			t.Fatalf("decode/encode not idempotent:\n g: %+v\n h: %+v", g, h)
		}
	})
}

// FuzzFramePooledRoundTrip exercises the allocation-free hot path: a frame
// is AppendMarshal'd into a dirty pooled buffer (as the forwarding pipeline
// reuses buffers holding prior frames) and decoded back through the
// zero-copy scratch decoder. The encoding must be byte-identical to a fresh
// Marshal — no prior buffer contents may leak — and the scratch decode must
// reproduce the frame exactly even when the scratch values hold stale
// state.
func FuzzFramePooledRoundTrip(f *testing.F) {
	fr := &Frame{Proto: LPReliable, Kind: FData, Seq: 3, Auth: []byte{9, 8, 7}, Packet: samplePacket()}
	seed, err := fr.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, frameFixedLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		fresh, err := g.Marshal()
		if err != nil {
			t.Fatalf("fresh marshal failed: %v", err)
		}

		buf := DefaultBufPool.Get(g.MarshaledSize())
		defer buf.Release()
		// Dirty the buffer's whole capacity to simulate reuse after a
		// larger prior frame.
		dirty := buf.B[:cap(buf.B)]
		for i := range dirty {
			dirty[i] = 0xAA
		}
		out, err := g.AppendMarshal(buf.B[:0])
		if err != nil {
			t.Fatalf("pooled marshal failed: %v", err)
		}
		buf.B = out
		if !bytes.Equal(out, fresh) {
			t.Fatalf("pooled marshal leaked dirty buffer contents:\n got:  %x\n want: %x", out, fresh)
		}

		// Decode through scratch values preloaded with stale state, as the
		// node's receive path reuses its scratch frame/packet per datagram.
		sf := Frame{Proto: 0x7f, Seq: 0xdeadbeef, Auth: []byte{1}, Packet: &Packet{Payload: []byte{2}}}
		sp := Packet{Payload: []byte{3, 3}, Sig: []byte{4}, Mask: Bitmask{0xff}}
		rest, err := UnmarshalFrameInto(&sf, &sp, out)
		if err != nil {
			t.Fatalf("scratch decode of pooled encoding failed: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("scratch decode left %d trailing bytes", len(rest))
		}
		if !reflect.DeepEqual(g, &sf) {
			t.Fatalf("scratch decode differs (stale state leaked?):\n g:  %+v\n sf: %+v", g, &sf)
		}
	})
}
