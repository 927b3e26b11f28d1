package node

import (
	"math/rand/v2"
	"testing"

	"sonet/internal/wire"
)

// refDedup is a trivially correct reference model of the dedup table: a
// FIFO of the last cap distinct keys, with no position refresh on
// re-observation.
type refDedup struct {
	order []dedupKey
	cap   int
}

func (r *refDedup) observe(k dedupKey) bool {
	for _, e := range r.order {
		if e == k {
			return false
		}
	}
	r.order = append(r.order, k)
	if len(r.order) > r.cap {
		r.order = r.order[1:]
	}
	return true
}

func dk(i int) dedupKey {
	return dedupKey{src: wire.NodeID(i + 1), flowSeq: uint32(i)}
}

// TestDedupWraparoundFIFO drives the table past capacity and checks the
// eviction order explicitly: the oldest key is evicted first, evicted keys
// count as first sightings again, and live keys never do.
func TestDedupWraparoundFIFO(t *testing.T) {
	const capacity = 4
	d := newDedupTable(capacity)

	for i := 0; i < capacity; i++ {
		if !d.Observe(dk(i)) {
			t.Fatalf("Observe(%d) = false on first sighting", i)
		}
	}
	for i := 0; i < capacity; i++ {
		if d.Observe(dk(i)) {
			t.Fatalf("Observe(%d) = true on duplicate", i)
		}
	}
	if d.Len() != capacity {
		t.Fatalf("Len() = %d, want %d", d.Len(), capacity)
	}

	// One past capacity: key 0 (the oldest) is evicted, the rest survive.
	if !d.Observe(dk(capacity)) {
		t.Fatalf("Observe(%d) = false on first sighting", capacity)
	}
	if d.Len() != capacity {
		t.Fatalf("Len() = %d after wraparound, want %d", d.Len(), capacity)
	}
	if !d.Observe(dk(0)) {
		t.Fatal("evicted key 0 not treated as a first sighting")
	}
	// Re-inserting 0 evicted 1 (FIFO), but 2..capacity are still live.
	if !d.Observe(dk(1)) {
		t.Fatal("evicted key 1 not treated as a first sighting")
	}
	for i := 3; i <= capacity; i++ {
		if d.Observe(dk(i)) {
			t.Fatalf("live key %d falsely reported as first sighting", i)
		}
	}
}

// TestDedupMatchesReferenceModel is the property test: random observation
// sequences over a universe larger than capacity must agree with the
// reference FIFO model on every single call, and Len must never exceed
// capacity. A one-shard plane's shared table is one stripe over the whole
// capacity, so it must agree with the same model call for call.
func TestDedupMatchesReferenceModel(t *testing.T) {
	for _, capacity := range []int{1, 2, 3, 8, 64} {
		rng := rand.New(rand.NewPCG(42, uint64(capacity)))
		d := newDedupTable(capacity)
		solo := newSharedDedup(capacity, 1)
		ref := &refDedup{cap: capacity}
		universe := 2*capacity + 3
		for op := 0; op < 20000; op++ {
			k := dk(rng.IntN(universe))
			got := d.Observe(k)
			want := ref.observe(k)
			if got != want {
				t.Fatalf("cap=%d op=%d key=%v: Observe = %v, reference = %v",
					capacity, op, k, got, want)
			}
			if got := solo.Observe(k); got != want {
				t.Fatalf("cap=%d op=%d key=%v: one-shard shared Observe = %v, reference = %v",
					capacity, op, k, got, want)
			}
			if d.Len() > capacity {
				t.Fatalf("cap=%d op=%d: Len = %d exceeds capacity", capacity, op, d.Len())
			}
			if d.Len() != len(ref.order) {
				t.Fatalf("cap=%d op=%d: Len = %d, reference holds %d",
					capacity, op, d.Len(), len(ref.order))
			}
		}
	}
}
