package wire

import (
	"bytes"
	"testing"
)

func TestSlabSegmentsDoNotOverlap(t *testing.T) {
	s := NewSlab(4, 64)
	if s.Segments() != 4 || s.SegmentSize() != 64 {
		t.Fatalf("geometry = %d×%d", s.Segments(), s.SegmentSize())
	}
	for i := 0; i < 4; i++ {
		seg := s.Segment(i)
		if len(seg) != 64 || cap(seg) != 64 {
			t.Fatalf("segment %d: len=%d cap=%d", i, len(seg), cap(seg))
		}
		for j := range seg {
			seg[j] = byte(i + 1)
		}
	}
	for i := 0; i < 4; i++ {
		want := bytes.Repeat([]byte{byte(i + 1)}, 64)
		if !bytes.Equal(s.Segment(i), want) {
			t.Fatalf("segment %d corrupted by neighbor writes", i)
		}
	}
}

func TestSlabSegmentAppendCannotBleed(t *testing.T) {
	s := NewSlab(2, 16)
	s.Segment(1)[0] = 0xAA
	seg := s.Segment(0)
	// Appending past a full segment must reallocate, not overwrite the
	// neighbor (the slice is capacity-clipped).
	grown := append(seg, 0xBB)
	grown[16] = 0xBB
	if s.Segment(1)[0] != 0xAA {
		t.Fatal("append past segment 0 bled into segment 1")
	}
}

func TestSlabPoolAccounting(t *testing.T) {
	p := NewSlabPool(2, 32, nil)
	a := p.Get()
	if got := p.Stats().Snapshot(); got.Misses != 1 || got.Hits != 0 {
		t.Fatalf("first Get: %+v", got)
	}
	p.Put(a)
	if got := p.Stats().Snapshot(); got.Recycled != 64 {
		t.Fatalf("recycled bytes = %d, want 64", got.Recycled)
	}
	if RaceEnabled {
		t.Skip("sync.Pool drops a share of Puts under -race, so reuse is not observable")
	}
	b := p.Get()
	if b != a {
		t.Fatal("pool did not recycle the slab")
	}
	if got := p.Stats().Snapshot(); got.Hits != 1 {
		t.Fatalf("after recycle: %+v", got)
	}
}

func TestSlabPoolRejectsForeignGeometry(t *testing.T) {
	p := NewSlabPool(2, 32, nil)
	p.Put(NewSlab(4, 32)) // wrong segment count
	p.Put(NewSlab(2, 64)) // wrong segment size
	p.Put(nil)
	if got := p.Stats().Snapshot(); got.Recycled != 0 {
		t.Fatalf("foreign slab accepted: %+v", got)
	}
	s := p.Get()
	if s.Segments() != 2 || s.SegmentSize() != 32 {
		t.Fatalf("got foreign slab %d×%d", s.Segments(), s.SegmentSize())
	}
}
