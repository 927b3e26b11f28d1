package node

import (
	"sync"

	"sonet/internal/seqno"
	"sonet/internal/wire"
)

// flow identifies a stream of routing-level packets for duplicate
// suppression across redundant dissemination (flooding, masks, multicast);
// its packets are told apart by FlowSeq. A session flow fixes all five
// fields.
type flow struct {
	src, dst         wire.NodeID
	srcPort, dstPort wire.Port
	group            wire.GroupID
}

const (
	// dedupWindow is how far back a flow's copies are judged by their bit:
	// 2^14 of its own sequences, a 2 KiB bitmap.
	dedupWindow = 1 << 14
	// dedupFlows bounds the flows a node tracks; past it the oldest-opened
	// flow is forgotten. With full windows that is 4 MiB.
	dedupFlows = 2048
	// dedupStripes is the stripe count of a table more than one shard
	// observes: the stripe pick takes the top four bits of a hash.
	dedupStripes = 16
)

// sharedDedup is the node's duplicate-suppression table: the overlay
// node's "ample memory" (§II-B) put to use tracking received messages so
// redundantly transmitted copies can be de-duplicated in the middle of the
// network. It keeps one sliding seqno.Window per flow, so it is sized by
// flows, not by packets seen. Flood and multicast copies of one packet
// arrive via different neighbors, which home on different shards, so
// first-sighting is decided against one table shared by every shard of the
// plane. With several shards it is striped by flow — different flows
// contend on different mutexes, and one flow's copies serialize on exactly
// one. A one-shard plane has one observer: it gets one stripe, bounded by
// every flow the node tracks, and takes no lock. Unicast traffic never
// touches the table (link-state routing skips dedup).
type sharedDedup struct {
	stripes []dedupStripe
}

type dedupStripe struct {
	mu    sync.Mutex
	flows map[flow]*seqno.Window
	// order lists the flows oldest-opened first: the order they are
	// forgotten in.
	order seqno.FIFO[flow]
	// pad rounds a stripe to a 64-byte cache line.
	_ [8]byte
}

// newSharedDedup builds a table of n stripes: one for a one-shard plane,
// dedupStripes for more.
func newSharedDedup(n int) *sharedDedup {
	d := &sharedDedup{stripes: make([]dedupStripe, n)}
	for i := range d.stripes {
		d.stripes[i].flows = make(map[flow]*seqno.Window)
	}
	return d
}

// Flows returns the number of flows tracked across every stripe.
func (d *sharedDedup) Flows() (n int) {
	for i := range d.stripes {
		s := &d.stripes[i]
		s.mu.Lock()
		n += len(s.flows)
		s.mu.Unlock()
	}
	return n
}

// Observe judges sequence seq of flow f and reports whether this was its
// first sighting across every shard; with record false it leaves the table
// as it was. Safe from any of the plane's loops.
func (d *sharedDedup) Observe(f flow, seq uint32, record bool) bool {
	s := &d.stripes[0]
	if len(d.stripes) > 1 {
		// A multiplicative hash of the flow picks the stripe.
		h := uint64(f.src)<<48 | uint64(f.dst)<<32 | uint64(f.srcPort)<<16 | uint64(f.dstPort) ^ uint64(f.group)<<8
		s = &d.stripes[h*0x9e3779b97f4a7c15>>60]
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	w, ok := s.flows[f]
	if !record {
		return !ok || w.Fresh(seq)
	}
	if !ok {
		// Each stripe holds its share of dedupFlows.
		if s.order.Len() == dedupFlows/len(d.stripes) {
			delete(s.flows, s.order.Pop())
		}
		w = seqno.NewWindow(dedupWindow)
		s.flows[f] = w
		s.order.Push(f)
	}
	return w.Observe(seq)
}
