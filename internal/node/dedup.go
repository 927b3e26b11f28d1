package node

import (
	"sync"

	"sonet/internal/wire"
)

// dedupKey identifies a routing-level packet for duplicate suppression
// across redundant dissemination (flooding, masks, multicast).
type dedupKey struct {
	src     wire.NodeID
	srcPort wire.Port
	dst     wire.NodeID
	dstPort wire.Port
	group   wire.GroupID
	flowSeq uint32
}

// dedupTable is a capacity-bounded first-seen set with FIFO eviction: the
// overlay node's "ample memory" (§II-B) put to use tracking received
// messages so redundantly transmitted copies can be de-duplicated in the
// middle of the network. It is sized by what it has seen: the set and the
// ring grow with the distinct keys observed, up to capacity, so a node
// that only forwards unicast holds nothing.
type dedupTable struct {
	seen     map[dedupKey]struct{}
	ring     []dedupKey
	next     int
	capacity int
}

func newDedupTable(capacity int) *dedupTable {
	return &dedupTable{seen: map[dedupKey]struct{}{}, capacity: capacity}
}

// Observe records the key and reports whether this was its first sighting.
func (d *dedupTable) Observe(k dedupKey) bool {
	if _, ok := d.seen[k]; ok {
		return false
	}
	d.seen[k] = struct{}{}
	if len(d.ring) < d.capacity {
		d.ring = append(d.ring, k)
		return true
	}
	delete(d.seen, d.ring[d.next])
	d.ring[d.next] = k
	d.next = (d.next + 1) % d.capacity
	return true
}

// Len returns the number of tracked keys.
func (d *dedupTable) Len() int { return len(d.seen) }

// dedupCapacity bounds a node's duplicate-suppression table.
const dedupCapacity = 1 << 16

// dedupStripes is the stripe count of a table more than one shard
// observes; a power of two so the stripe pick is a mask.
const dedupStripes = 16

// sharedDedup is the node's duplicate-suppression table, the only way to a
// dedupTable. Flood and multicast copies of one packet arrive via
// different neighbors, which home on different shards, so first-sighting
// is decided against one set shared by every shard of the plane. With
// several shards the set is striped by key hash — different packets
// contend on different mutexes, and one packet's redundant copies
// serialize on exactly one. A one-shard plane has one observer: it gets
// one stripe (so eviction is one FIFO over the whole capacity) and takes
// no lock. Unicast traffic never touches the table (link-state routing
// skips dedup).
type sharedDedup struct {
	stripes []dedupStripe
}

type dedupStripe struct {
	mu sync.Mutex
	t  *dedupTable
	// pad keeps neighboring stripes' mutexes off one cache line.
	_ [40]byte
}

// newSharedDedup builds the table for a plane of nshard shards, the total
// capacity split evenly across stripes.
func newSharedDedup(capacity, nshard int) *sharedDedup {
	if nshard <= 1 {
		return &sharedDedup{stripes: []dedupStripe{{t: newDedupTable(capacity)}}}
	}
	d := &sharedDedup{stripes: make([]dedupStripe, dedupStripes)}
	for i := range d.stripes {
		d.stripes[i].t = newDedupTable(max(capacity/dedupStripes, 16))
	}
	return d
}

// Len returns the number of keys tracked across every stripe.
func (d *sharedDedup) Len() (n int) {
	for i := range d.stripes {
		s := &d.stripes[i]
		s.mu.Lock()
		n += s.t.Len()
		s.mu.Unlock()
	}
	return n
}

// Observe records the key and reports whether this was its first sighting
// across every shard. Safe from any of the plane's loops.
func (d *sharedDedup) Observe(k dedupKey) bool {
	if len(d.stripes) == 1 {
		return d.stripes[0].t.Observe(k)
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(k.src)) * prime
	h = (h ^ uint64(k.srcPort)) * prime
	h = (h ^ uint64(k.dst)) * prime
	h = (h ^ uint64(k.group)) * prime
	h = (h ^ uint64(k.flowSeq)) * prime
	s := &d.stripes[h&(dedupStripes-1)]
	s.mu.Lock()
	first := s.t.Observe(k)
	s.mu.Unlock()
	return first
}
