package wire

import (
	"sync"

	"sonet/internal/metrics"
)

// The UDP receive loop used to allocate one 64 KiB scratch buffer per
// underlay (`buf := make([]byte, 1<<16)`) and read a single datagram at a
// time into it. The batched data plane instead drains up to ReadBatch
// datagrams per wakeup, which needs ReadBatch independent landing areas
// whose addresses stay stable across the recvmmsg call. A Slab is that
// landing area: one contiguous arena divided into fixed-size segments, one
// per in-flight datagram slot. The portable per-packet path uses the same
// slab (reading into segment 0), so both platforms share one
// buffer-ownership model: the slab belongs to the read loop, and datagram
// bytes are copied out into pooled Bufs before they cross goroutines.

// MaxDatagram is the largest UDP payload a slab segment must hold — the
// 64 KiB IPv4 datagram ceiling, comfortably above any marshaled frame
// (MaxPayload plus headers).
const MaxDatagram = 1 << 16

// ReadBatch is the number of datagrams a batch reader drains per wakeup —
// the segment count of a DefaultSlabs slab.
const ReadBatch = 32

// Slab is a contiguous receive arena divided into equal segments. The
// segments alias one backing array but never overlap, so the kernel can
// fill all of them in a single batched receive.
type Slab struct {
	backing []byte
	segSize int
	segs    int
}

// NewSlab returns an arena of segments × segSize bytes.
func NewSlab(segments, segSize int) *Slab {
	return &Slab{
		backing: make([]byte, segments*segSize),
		segSize: segSize,
		segs:    segments,
	}
}

// Segments returns the number of segments.
func (s *Slab) Segments() int { return s.segs }

// SegmentSize returns the byte size of each segment.
func (s *Slab) SegmentSize() int { return s.segSize }

// Segment returns segment i as a full-capacity slice. The slice is
// capacity-clipped so an append past the segment cannot silently bleed
// into its neighbor.
func (s *Slab) Segment(i int) []byte {
	off := i * s.segSize
	return s.backing[off : off+s.segSize : off+s.segSize]
}

// SlabPool recycles slabs of one fixed geometry, with the same
// hit/miss/recycled accounting BufPool keeps for frame buffers.
type SlabPool struct {
	segments int
	segSize  int
	pool     sync.Pool
	stats    *metrics.PoolStats
}

// NewSlabPool returns a pool of segments × segSize slabs recording into
// stats; a nil stats gets a private counter set.
func NewSlabPool(segments, segSize int, stats *metrics.PoolStats) *SlabPool {
	if stats == nil {
		stats = &metrics.PoolStats{}
	}
	return &SlabPool{segments: segments, segSize: segSize, stats: stats}
}

// Stats returns the pool's counters.
func (p *SlabPool) Stats() *metrics.PoolStats { return p.stats }

// Get returns a slab of the pool's geometry, recycled when one is
// available.
func (p *SlabPool) Get() *Slab {
	if v := p.pool.Get(); v != nil {
		if s, ok := v.(*Slab); ok {
			p.stats.Hits.Add(1)
			return s
		}
	}
	p.stats.Misses.Add(1)
	return NewSlab(p.segments, p.segSize)
}

// Put returns a slab for reuse. Slabs of a different geometry are left to
// the garbage collector: a segment-address mix-up is worse than one lost
// arena.
func (p *SlabPool) Put(s *Slab) {
	if s == nil || s.segs != p.segments || s.segSize != p.segSize {
		return
	}
	p.stats.Recycled.Add(uint64(len(s.backing)))
	p.pool.Put(s)
}

// DefaultSlabs serves the UDP batch readers: ReadBatch segments of
// MaxDatagram bytes each, shared process-wide so short-lived underlays
// (tests, reconnects) reuse arenas instead of re-allocating 2 MiB each.
var DefaultSlabs = NewSlabPool(ReadBatch, MaxDatagram, nil)
