package groups

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"testing"

	"sonet/internal/wire"
)

// UnmarshalAnnouncement is the allocating decoder HandleAnnouncement used
// before it peeked at the header and decoded into scratch. It stays here as
// the reference FuzzAnnouncementDecode holds peekAnnouncement and decode to.
func UnmarshalAnnouncement(src []byte) (*Announcement, error) {
	if len(src) < 8 {
		return nil, fmt.Errorf("groups: header %d bytes: %w", len(src), ErrBadAnnouncement)
	}
	a := &Announcement{
		Origin: wire.NodeID(binary.BigEndian.Uint16(src[0:])),
		Seq:    binary.BigEndian.Uint32(src[2:]),
	}
	count := int(binary.BigEndian.Uint16(src[6:]))
	src = src[8:]
	if len(src) < 4*count {
		return nil, fmt.Errorf("groups: %d groups in %d bytes: %w", count, len(src), ErrBadAnnouncement)
	}
	a.Groups = make([]wire.GroupID, count)
	for i := 0; i < count; i++ {
		a.Groups[i] = wire.GroupID(binary.BigEndian.Uint32(src[4*i:]))
	}
	return a, nil
}

// pinnedBestEffortFrame is TestWireFormatPinned's best-effort frame
// (internal/node/wirepin_test.go): the service control payloads travel on.
const pinnedBestEffortFrame = "0101030000000000000000000000000000000000000000000ee6b2802090f3bb5a8adc14e378f80227698f45c67b3f53603bcdf1f54d51afd6064b3a7001081f01010300010002002802bc0000000000000009000000000ee6b280000000000bebc2000000000e70696e6e6564207061796c6f6164"

// FuzzAnnouncementDecode holds the two-step decoder — peek at the header,
// then decode into a reused Announcement — to the allocating reference: same
// accept/reject, the peeked header is the decoded header, same groups
// whatever the scratch held before, and no panic.
func FuzzAnnouncementDecode(f *testing.F) {
	some := &Announcement{Origin: 3, Seq: 9, Groups: []wire.GroupID{1, 77, 1 << 20}}
	f.Add(some.Marshal())
	f.Add((&Announcement{Origin: 4, Seq: 1}).Marshal())
	f.Add(some.Marshal()[:10])
	pinned, err := hex.DecodeString(pinnedBestEffortFrame)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pinned)
	f.Add(pinned[len(pinned)-40:])
	// The scratch starts dirty, and longer than most inputs decode to.
	scratch := Announcement{Origin: 99, Seq: 99, Groups: make([]wire.GroupID, 300)}
	f.Fuzz(func(t *testing.T, src []byte) {
		want, wantErr := UnmarshalAnnouncement(src)
		origin, seq, err := peekAnnouncement(src)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("peek err %v, reference err %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBadAnnouncement) {
				t.Fatalf("peek error %v does not wrap ErrBadAnnouncement", err)
			}
			return
		}
		scratch.decode(src)
		if origin != want.Origin || seq != want.Seq || scratch.Origin != want.Origin || scratch.Seq != want.Seq {
			t.Fatalf("peeked (%v, %d), decoded (%v, %d), reference (%v, %d)",
				origin, seq, scratch.Origin, scratch.Seq, want.Origin, want.Seq)
		}
		if !slices.Equal(scratch.Groups, want.Groups) {
			t.Fatalf("decoded groups %v, reference %v", scratch.Groups, want.Groups)
		}
	})
}
