package linkstate

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sonet/internal/wire"
)

// UnmarshalAdvertisement is the allocating decoder HandleLSA used before it
// peeked at the header and decoded into scratch. It stays here as the
// reference FuzzAdvertisementDecode holds peekAdvertisement and decode to.
func UnmarshalAdvertisement(src []byte) (*Advertisement, error) {
	if len(src) < advHeaderLen {
		return nil, fmt.Errorf("linkstate: header %d bytes: %w", len(src), ErrBadAdvertisement)
	}
	a := &Advertisement{
		Origin: wire.NodeID(binary.BigEndian.Uint16(src[0:])),
		Seq:    binary.BigEndian.Uint32(src[2:]),
		Delta:  src[6]&advFlagDelta != 0,
	}
	count := int(src[7])
	src = src[advHeaderLen:]
	if len(src) < count*advEntryLen {
		return nil, fmt.Errorf("linkstate: %d entries in %d bytes: %w", count, len(src), ErrBadAdvertisement)
	}
	a.Entries = make([]Entry, count)
	for i := 0; i < count; i++ {
		e := src[i*advEntryLen:]
		a.Entries[i] = Entry{
			Link:    wire.LinkID(binary.BigEndian.Uint16(e[0:])),
			Up:      e[2] == 1,
			Latency: time.Duration(binary.BigEndian.Uint32(e[3:])) * time.Microsecond,
			Loss:    float64(binary.BigEndian.Uint16(e[7:])) / 10000,
		}
	}
	return a, nil
}

// pinnedBestEffortFrame is TestWireFormatPinned's best-effort frame
// (internal/node/wirepin_test.go): the service control payloads travel on.
const pinnedBestEffortFrame = "0101030000000000000000000000000000000000000000000ee6b2802090f3bb5a8adc14e378f80227698f45c67b3f53603bcdf1f54d51afd6064b3a7001081f01010300010002002802bc0000000000000009000000000ee6b280000000000bebc2000000000e70696e6e6564207061796c6f6164"

// FuzzAdvertisementDecode holds the two-step decoder — peek at the header,
// then decode into a reused Advertisement — to the allocating reference:
// same accept/reject, the peeked header is the decoded header, same delta
// flag and entries whatever the scratch held before, and no panic.
func FuzzAdvertisementDecode(f *testing.F) {
	full := &Advertisement{Origin: 7, Seq: 123456, Entries: []Entry{
		{Link: 3, Up: true, Latency: 12345 * time.Microsecond, Loss: 0.0123},
		{Link: 250, Up: false, Latency: 50 * time.Millisecond, Loss: 1},
	}}
	delta := &Advertisement{Origin: 9, Seq: 0xfffffff0, Delta: true, Entries: []Entry{{Link: 42, Loss: 0.5}}}
	f.Add(full.Marshal())
	f.Add(delta.Marshal())
	f.Add((&Advertisement{Origin: 1}).Marshal())
	f.Add(full.Marshal()[:advHeaderLen+advEntryLen])
	pinned, err := hex.DecodeString(pinnedBestEffortFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pinned)
	f.Add(pinned[len(pinned)-40:])
	// The scratch starts dirty, and longer than most inputs decode to.
	scratch := Advertisement{Origin: 99, Seq: 99, Delta: true, Entries: make([]Entry, 300)}
	f.Fuzz(func(t *testing.T, src []byte) {
		want, wantErr := UnmarshalAdvertisement(src)
		origin, seq, err := peekAdvertisement(src)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("peek err %v, reference err %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadAdvertisement) {
				t.Fatalf("peek error %v does not wrap ErrBadAdvertisement", err)
			}
			return
		}
		scratch.decode(src)
		if origin != want.Origin || seq != want.Seq {
			t.Fatalf("peeked (%v, %d), reference (%v, %d)", origin, seq, want.Origin, want.Seq)
		}
		if scratch.Origin != want.Origin || scratch.Seq != want.Seq || scratch.Delta != want.Delta {
			t.Fatalf("decoded header %v/%d/%v, reference %v/%d/%v",
				scratch.Origin, scratch.Seq, scratch.Delta, want.Origin, want.Seq, want.Delta)
		}
		if len(scratch.Entries) != len(want.Entries) || len(want.Entries) > 0 && !reflect.DeepEqual(scratch.Entries, want.Entries) {
			t.Fatalf("decoded entries %+v, reference %+v", scratch.Entries, want.Entries)
		}
	})
}

// TestAdvertisedQualityIsStable: whatever an origin measured, what a
// receiver decodes from its advertisement encodes to the same bytes again,
// so a full refresh built from a view that holds decoded values changes no
// receiver's view.
func TestAdvertisedQualityIsStable(t *testing.T) {
	for bp := 0; bp <= 10000; bp++ {
		if _, loss := quality(0, uint16(bp)); lossUnits(loss) != uint16(bp) {
			t.Fatalf("loss %d/10000 decodes to %v, which encodes as %d", bp, loss, lossUnits(loss))
		}
	}
	for _, d := range []time.Duration{-1, 0, 999, 10*time.Millisecond + 457, 1 << 50} {
		latency, _ := quality(latencyUnits(d), 0)
		if latencyUnits(latency) != latencyUnits(d) {
			t.Fatalf("latency %v decodes to %v, which encodes differently", d, latency)
		}
	}
}
