package wire

import (
	"testing"

	"sonet/internal/metrics"
)

func TestBufPoolGetClassesAndCounters(t *testing.T) {
	stats := &metrics.PoolStats{}
	p := NewBufPool(stats)
	for _, size := range []int{0, 1, 256, 257, 4096, MaxPayload} {
		b := p.Get(size)
		if len(b.B) != 0 {
			t.Fatalf("Get(%d) len = %d, want 0", size, len(b.B))
		}
		if cap(b.B) < size {
			t.Fatalf("Get(%d) cap = %d, want >= size", size, cap(b.B))
		}
		b.Release()
	}
	snap := stats.Snapshot()
	if snap.Hits+snap.Misses != 6 {
		t.Fatalf("hits %d + misses %d != 6 gets", snap.Hits, snap.Misses)
	}
	if snap.Recycled == 0 {
		t.Fatal("no bytes recorded as recycled after releases")
	}
}

func TestBufPoolReuseHits(t *testing.T) {
	stats := &metrics.PoolStats{}
	p := NewBufPool(stats)
	// Under the race detector sync.Pool randomly drops a fraction of Puts,
	// so one release/get cycle is not guaranteed a hit — retry until the
	// counter moves.
	for i := 0; i < 64 && stats.Snapshot().Hits == 0; i++ {
		b := p.Get(100)
		b.B = append(b.B, 1, 2, 3)
		b.Release()
		// Same size class: the just-released buffer satisfies this Get
		// with length reset to zero.
		c := p.Get(200)
		if len(c.B) != 0 {
			t.Fatalf("reused buffer len = %d, want 0", len(c.B))
		}
		c.Release()
	}
	if stats.Snapshot().Hits == 0 {
		t.Fatal("release/get cycles recorded no pool hit")
	}
}

func TestBufDoubleReleasePanics(t *testing.T) {
	p := NewBufPool(nil)
	// Use an oversized (unpooled) buffer so the panic check does not
	// depend on whether the recycled Buf was already handed out again.
	b := p.Get(MaxPayload + 4096)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	b.Release()
}

func TestBufPoolOversizedUnpooled(t *testing.T) {
	stats := &metrics.PoolStats{}
	p := NewBufPool(stats)
	size := bufClasses[len(bufClasses)-1] + 1
	b := p.Get(size)
	if cap(b.B) < size {
		t.Fatalf("oversized Get cap = %d, want >= %d", cap(b.B), size)
	}
	b.Release()
	snap := stats.Snapshot()
	if snap.Misses != 1 || snap.Hits != 0 {
		t.Fatalf("oversized get: hits=%d misses=%d, want 0/1", snap.Hits, snap.Misses)
	}
	if snap.Recycled != 0 {
		t.Fatalf("oversized buffer counted %d recycled bytes", snap.Recycled)
	}
}

func TestPoolSnapshotHitRatio(t *testing.T) {
	s := metrics.PoolSnapshot{Hits: 3, Misses: 1}
	if got := s.HitRatio(); got != 0.75 {
		t.Fatalf("HitRatio = %v, want 0.75", got)
	}
	var zero metrics.PoolSnapshot
	if got := zero.HitRatio(); got != 0 {
		t.Fatalf("zero HitRatio = %v, want 0", got)
	}
}
