package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitmaskSetHasClear(t *testing.T) {
	var m Bitmask
	if !m.Empty() {
		t.Fatal("zero mask not empty")
	}
	for _, id := range []LinkID{0, 1, 63, 64, 127, 128, 255} {
		m.Set(id)
		if !m.Has(id) {
			t.Fatalf("Has(%d) = false after Set", id)
		}
	}
	if m.Count() != 7 {
		t.Fatalf("Count() = %d, want 7", m.Count())
	}
	m.Clear(64)
	if m.Has(64) {
		t.Fatal("Has(64) = true after Clear")
	}
	if m.Count() != 6 {
		t.Fatalf("Count() = %d, want 6", m.Count())
	}
}

func TestBitmaskOutOfRangeIgnored(t *testing.T) {
	var m Bitmask
	m.Set(LinkID(MaxLinks))
	if !m.Empty() {
		t.Fatal("out-of-range Set modified mask")
	}
	if m.Has(LinkID(MaxLinks)) {
		t.Fatal("Has out-of-range = true")
	}
}

func TestBitmaskLinksSorted(t *testing.T) {
	var m Bitmask
	ids := []LinkID{200, 5, 64, 63, 0}
	for _, id := range ids {
		m.Set(id)
	}
	got := m.Links()
	want := []LinkID{0, 5, 63, 64, 200}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Links() = %v, want %v", got, want)
	}
}

func TestBitmaskOr(t *testing.T) {
	var a, b Bitmask
	a.Set(1)
	b.Set(200)
	a.Or(b)
	if !a.Has(1) || !a.Has(200) {
		t.Fatalf("Or result missing members: %v", a.Links())
	}
}

// TestBitmaskMarshalRoundTripProperty checks mask encode/decode over
// arbitrary link sets via the packet encoding path.
func TestBitmaskMarshalRoundTripProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			ids := make([]uint16, r.Intn(40))
			for i := range ids {
				ids[i] = uint16(r.Intn(MaxLinks))
			}
			vals[0] = reflect.ValueOf(ids)
		},
	}
	prop := func(ids []uint16) bool {
		var m Bitmask
		for _, id := range ids {
			m.Set(LinkID(id))
		}
		buf := appendMask(nil, m)
		got, rest, err := readMask(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return got == m
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestReadMaskRejectsOversizedLength(t *testing.T) {
	buf := []byte{maskBytes + 1}
	buf = append(buf, make([]byte, maskBytes+1)...)
	if _, _, err := readMask(buf); err == nil {
		t.Fatal("readMask accepted oversized length")
	}
}

// byteMask is the byte-at-a-time encoding the word-wise one replaced:
// unpack all 32 bytes little-endian, then trim trailing zero bytes.
func byteMask(m Bitmask) []byte {
	var raw [maskBytes]byte
	for i, w := range m {
		for b := 0; b < 8; b++ {
			raw[i*8+b] = byte(w >> (8 * b))
		}
	}
	n := maskBytes
	for n > 0 && raw[n-1] == 0 {
		n--
	}
	return append([]byte{byte(n)}, raw[:n]...)
}

// TestMaskEncodingMatchesByteLoop holds the word-wise mask encoding and
// Packet.MarshaledSize to the byte loop, on the edge masks (empty, bit 0,
// bit 255, one bit on each side of every byte boundary) and on seeded
// random masks of every density.
func TestMaskEncodingMatchesByteLoop(t *testing.T) {
	masks := []Bitmask{{}}
	for _, id := range []LinkID{0, 255} {
		var m Bitmask
		m.Set(id)
		masks = append(masks, m)
	}
	for b := LinkID(8); b < MaxLinks; b += 8 {
		for _, id := range []LinkID{b - 1, b} {
			var m Bitmask
			m.Set(id)
			masks = append(masks, m)
		}
	}
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 10000; i++ {
		var m Bitmask
		for w := range m {
			// Clear whole words at random so short and long masks both occur.
			if rng.Intn(3) > 0 {
				m[w] = rng.Uint64() >> rng.Intn(64)
			}
		}
		masks = append(masks, m)
	}
	for _, m := range masks {
		want := byteMask(m)
		if got := appendMask(nil, m); !reflect.DeepEqual(got, want) {
			t.Fatalf("mask %v encodes as % x, byte loop gives % x", m, got, want)
		}
		p := Packet{Mask: m}
		if got := p.MarshaledSize(); got != packetFixedLen+len(want)+3 {
			t.Fatalf("mask %v: MarshaledSize %d, byte loop gives %d", m, got, packetFixedLen+len(want)+3)
		}
	}
}
