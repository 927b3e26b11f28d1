package wire

import (
	"sync"

	"sonet/internal/metrics"
)

// The forwarding fast path marshals one frame per hop per egress link.
// Allocating those buffers fresh makes every hop GC-bound and adds jitter
// to the latency-sensitive experiments, so the hot path draws them from a
// BufPool instead: Get returns a Buf whose capacity covers the request,
// Release returns it for reuse once the bytes have left the pipeline
// (handed to the underlay, delivered, or dropped).
//
// Ownership rules (see DESIGN.md §6):
//   - Get returns a Buf the caller owns; every Buf has exactly one owner.
//   - Handing the buffer on hands ownership on; whoever owns it last
//     Releases it, once.
//   - After Release the bytes belong to the pool; reading or writing them
//     is a use-after-free. The race detector sees misuse as concurrent
//     map/slice access in tests.

// bufClasses are the pooled capacity classes. The largest covers a frame
// wrapping a MaxPayload packet with full mask, signature, and auth trailer;
// requests beyond it fall through to plain allocation (a recorded miss).
var bufClasses = [...]int{256, 1024, 4096, 16384, MaxPayload + 1024}

// Buf is one pooled byte buffer. B is the live contents: Get hands it out
// with length zero and class capacity, and callers append into it.
type Buf struct {
	// B holds the buffer contents; append into B[:0] after Get.
	B []byte

	// released is set by Release and cleared by Get.
	released bool
	// class is the index into the owning pool's classes, or -1 for an
	// oversized one-shot buffer that is not recycled.
	class int
	pool  *BufPool
}

// Release gives the buffer back to the pool. Releasing it twice panics: a
// double release means some pipeline stage used the buffer after handing
// it off.
func (b *Buf) Release() {
	if b.released {
		panic("wire: Buf released twice")
	}
	b.released = true
	if b.class < 0 || b.pool == nil {
		return
	}
	b.pool.stats.Recycled.Add(uint64(cap(b.B)))
	b.pool.classes[b.class].Put(b)
}

// BufPool is a size-classed freelist of marshal/delivery buffers built on
// sync.Pool, with hit/miss/recycled accounting in metrics.PoolStats.
type BufPool struct {
	classes [len(bufClasses)]sync.Pool
	stats   *metrics.PoolStats
}

// NewBufPool returns an empty pool recording into stats; a nil stats gets a
// private counter set.
func NewBufPool(stats *metrics.PoolStats) *BufPool {
	if stats == nil {
		stats = &metrics.PoolStats{}
	}
	return &BufPool{stats: stats}
}

// Stats returns the pool's counters.
func (p *BufPool) Stats() *metrics.PoolStats { return p.stats }

// Get returns a buffer with len(B) == 0 and cap(B) >= size, owned by the
// caller. Oversized requests are served by a fresh unpooled allocation.
func (p *BufPool) Get(size int) *Buf {
	for i, c := range bufClasses {
		if size > c {
			continue
		}
		if v := p.classes[i].Get(); v != nil {
			b, ok := v.(*Buf)
			if ok {
				p.stats.Hits.Add(1)
				b.B, b.released = b.B[:0], false
				return b
			}
		}
		p.stats.Misses.Add(1)
		return &Buf{B: make([]byte, 0, c), class: i, pool: p}
	}
	p.stats.Misses.Add(1)
	return &Buf{B: make([]byte, 0, size), class: -1, pool: p}
}

// DefaultBufPool is the process-wide pool the node, emulator, and UDP
// underlay share; sharing maximizes reuse across pipeline stages.
var DefaultBufPool = NewBufPool(nil)

// PoolSnapshot returns the shared pool's counters.
func PoolSnapshot() metrics.PoolSnapshot { return DefaultBufPool.Stats().Snapshot() }
