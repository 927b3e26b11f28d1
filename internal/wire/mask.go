package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// MaxLinks is the maximum number of overlay links addressable by a
// source-route bitmask. Structured overlays are small by design (a few tens
// of nodes, §II-A), so 256 links is ample.
const MaxLinks = 256

// maskBytes is the marshaled size of a full bitmask.
const maskBytes = MaxLinks / 8

// Bitmask is a set of overlay links used by source-based routing: bit i set
// means the packet should traverse the overlay link with LinkID i.
//
// The zero value is the empty set. Bitmasks marshal to at most 32 bytes;
// trailing zero bytes are trimmed on the wire.
type Bitmask [maskBytes / 8]uint64

// Set adds link id to the mask.
func (m *Bitmask) Set(id LinkID) {
	if int(id) >= MaxLinks {
		return
	}
	m[id/64] |= 1 << (id % 64)
}

// Clear removes link id from the mask.
func (m *Bitmask) Clear(id LinkID) {
	if int(id) >= MaxLinks {
		return
	}
	m[id/64] &^= 1 << (id % 64)
}

// Has reports whether link id is in the mask.
func (m *Bitmask) Has(id LinkID) bool {
	if int(id) >= MaxLinks {
		return false
	}
	return m[id/64]&(1<<(id%64)) != 0
}

// Or merges other into m.
func (m *Bitmask) Or(other Bitmask) {
	for i := range m {
		m[i] |= other[i]
	}
}

// Count returns the number of links in the mask.
func (m *Bitmask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no links are set.
func (m *Bitmask) Empty() bool {
	for _, w := range m {
		if w != 0 {
			return false
		}
	}
	return true
}

// Links returns the link IDs in the mask in ascending order.
func (m *Bitmask) Links() []LinkID {
	out := make([]LinkID, 0, m.Count())
	for i, w := range m {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, LinkID(i*64+b))
			w &^= 1 << b
		}
	}
	return out
}

// String renders the mask as a set of link IDs.
func (m *Bitmask) String() string { return fmt.Sprintf("mask%v", m.Links()) }

// wireLen returns the marshaled length of m without its prefix: the
// little-endian bytes up to and including the highest nonzero one.
func (m *Bitmask) wireLen() int {
	for i := len(m) - 1; i >= 0; i-- {
		if m[i] != 0 {
			return i*8 + (71-bits.LeadingZeros64(m[i]))/8
		}
	}
	return 0
}

// appendMask writes the mask with a 1-byte length prefix, trimming trailing
// zero bytes: word by word, the last one cut to the bytes it needs.
func appendMask(dst []byte, m Bitmask) []byte {
	n := m.wireLen()
	dst = append(dst, byte(n))
	var word [8]byte
	for i := 0; i < n; i += 8 {
		binary.LittleEndian.PutUint64(word[:], m[i/8])
		dst = append(dst, word[:min(n-i, 8)]...)
	}
	return dst
}

// readMask parses a length-prefixed mask, returning the remaining bytes.
func readMask(src []byte) (Bitmask, []byte, error) {
	var m Bitmask
	if len(src) < 1 {
		return m, nil, fmt.Errorf("wire: truncated mask length: %w", ErrTruncated)
	}
	n := int(src[0])
	src = src[1:]
	if n > maskBytes {
		return m, nil, fmt.Errorf("wire: mask length %d exceeds %d: %w", n, maskBytes, ErrMalformed)
	}
	if len(src) < n {
		return m, nil, fmt.Errorf("wire: truncated mask body: %w", ErrTruncated)
	}
	for i := 0; i < n; i++ {
		m[i/8] |= uint64(src[i]) << (8 * (i % 8))
	}
	return m, src[n:], nil
}
