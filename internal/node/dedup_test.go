package node

import (
	"math/rand/v2"
	"slices"
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

// preallocDedup is the table this package had before it grew on demand:
// map and ring sized to capacity before the first key. It stays here as
// the reference the growing table is held to.
type preallocDedup struct {
	seen map[dedupKey]struct{}
	ring []dedupKey
	next int
	full bool
}

func (d *preallocDedup) Observe(k dedupKey) bool {
	if _, ok := d.seen[k]; ok {
		return false
	}
	if d.full {
		delete(d.seen, d.ring[d.next])
	}
	d.ring[d.next] = k
	d.seen[k] = struct{}{}
	d.next++
	if d.next == len(d.ring) {
		d.next = 0
		d.full = true
	}
	return true
}

// fifo lists the tracked keys oldest first: the order they will be evicted.
func (d *preallocDedup) fifo() []dedupKey {
	if !d.full {
		return d.ring[:d.next]
	}
	return append(append([]dedupKey(nil), d.ring[d.next:]...), d.ring[:d.next]...)
}

// TestDedupGrowsOnDemand holds the table to the preallocated one it
// replaced: a fresh table has no ring and no keys; 200 000 seeded
// observations with repeats — over fewer distinct keys than the capacity,
// and over more — get the same answer call for call; and at the end both
// hold the same keys in the same eviction order, in a ring exactly as long
// as min(distinct keys, capacity).
func TestDedupGrowsOnDemand(t *testing.T) {
	for _, universe := range []int{3000, dedupCapacity + 20000} {
		d := newSharedDedup(dedupCapacity, 1)
		tab := d.stripes[0].t
		if cap(tab.ring) != 0 || len(tab.seen) != 0 || d.Len() != 0 {
			t.Fatalf("a fresh table holds a ring of %d and %d keys", cap(tab.ring), d.Len())
		}
		ref := &preallocDedup{seen: make(map[dedupKey]struct{}, dedupCapacity), ring: make([]dedupKey, dedupCapacity)}
		rng := rand.New(rand.NewPCG(22, uint64(universe)))
		distinct := make(map[dedupKey]struct{})
		for op := 0; op < 200000; op++ {
			k := dk(rng.IntN(universe))
			distinct[k] = struct{}{}
			if got, want := d.Observe(k), ref.Observe(k); got != want {
				t.Fatalf("universe %d op %d: Observe(%v) = %v, the preallocated table says %v", universe, op, k, got, want)
			}
			if want := min(len(distinct), dedupCapacity); len(tab.ring) != want || d.Len() != len(ref.seen) {
				t.Fatalf("universe %d op %d: ring of %d holding %d keys, want %d and %d", universe, op, len(tab.ring), d.Len(), want, len(ref.seen))
			}
		}
		got := append(append([]dedupKey(nil), tab.ring[tab.next:]...), tab.ring[:tab.next]...)
		if !slices.Equal(got, ref.fifo()) {
			t.Fatalf("universe %d: eviction order differs from the preallocated table's", universe)
		}
	}
}
