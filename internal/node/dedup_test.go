package node

import (
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonet/internal/wire"
)

// refKey is one packet as the table this package had before per-flow
// windows knew it: its flow and its sequence.
type refKey struct {
	f   flow
	seq uint32
}

// refDedup is a trivially correct reference model of that table: a FIFO of
// the last cap distinct keys, with no position refresh on re-observation.
type refDedup struct {
	order []refKey
	seen  map[refKey]bool
	cap   int
}

func (r *refDedup) observe(k refKey) bool {
	if r.seen[k] {
		return false
	}
	r.seen[k] = true
	r.order = append(r.order, k)
	if len(r.order) > r.cap {
		delete(r.seen, r.order[0])
		r.order = r.order[1:]
	}
	return true
}

// copyStream returns the copies a node sees of flows numbered from bases:
// count sequences each, every sequence arriving one to three times, each
// copy up to lag sequences late, the flows interleaved.
func copyStream(rng *rand.Rand, flows []flow, bases []uint32, count, lag int) []refKey {
	type arrival struct {
		at int
		k  refKey
	}
	var arr []arrival
	for i, f := range flows {
		for n := 0; n < count; n++ {
			for c := 1 + rng.IntN(3); c > 0; c-- {
				arr = append(arr, arrival{n + rng.IntN(lag), refKey{f, bases[i] + uint32(n)}})
			}
		}
	}
	rng.Shuffle(len(arr), func(i, j int) { arr[i], arr[j] = arr[j], arr[i] })
	slices.SortStableFunc(arr, func(a, b arrival) int { return a.at - b.at })
	keys := make([]refKey, len(arr))
	for i, a := range arr {
		keys[i] = a.k
	}
	return keys
}

// TestDedupMatchesReferenceModel holds the per-flow windows to the per-packet
// table they replaced: seeded streams of interleaved flows — duplicates and
// reordering with copies less than a window late, one flow whose first packet
// is FlowSeq 0 and one that crosses 2^32 — get the reference's answer call
// for call, from a one-shard table and from a striped one, as long as the
// reference holds every key it was shown. Observe without recording, asked of
// the striped table first, gives the same answer and leaves it as it was.
func TestDedupMatchesReferenceModel(t *testing.T) {
	flows := []flow{
		{src: 1, dst: 4, srcPort: 9, dstPort: 100},
		{src: 1, dst: 4, srcPort: 10, dstPort: 100},
		{src: 2, dst: 4, srcPort: 9, dstPort: 100},
		{src: 1, srcPort: 9, group: 500},
		{src: 3, srcPort: 11, group: 501},
		{src: 3, dst: 1, srcPort: 11, dstPort: 7},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(42, seed))
		bases := []uint32{0, 1<<32 - 700, 1, rng.Uint32(), rng.Uint32(), 1<<31 - 5}
		keys := copyStream(rng, flows, bases, 1500, 1+rng.IntN(400))
		ref := &refDedup{seen: map[refKey]bool{}, cap: len(keys)}
		solo, striped := newSharedDedup(1), newSharedDedup(dedupStripes)
		for op, k := range keys {
			want := ref.observe(k)
			if got := striped.Observe(k.f, k.seq, false); got != want {
				t.Fatalf("seed %d op %d %+v: striped unrecorded Observe = %v, reference = %v", seed, op, k, got, want)
			}
			if got := solo.Observe(k.f, k.seq, true); got != want {
				t.Fatalf("seed %d op %d %+v: one-shard Observe = %v, reference = %v", seed, op, k, got, want)
			}
			if got := striped.Observe(k.f, k.seq, true); got != want {
				t.Fatalf("seed %d op %d %+v: striped Observe = %v, reference = %v", seed, op, k, got, want)
			}
		}
		if n := solo.Flows(); n != len(flows) {
			t.Fatalf("seed %d: tracks %d flows, want %d", seed, n, len(flows))
		}
	}
}

// TestDedupRestartReadsAsFirstSighting is the first documented difference
// from the reference: a sequence a whole window or more behind its flow's
// top reads as a restart of the flow, a first sighting, where the per-packet
// table said duplicate while it still held the key. One less behind is
// judged by its bit.
func TestDedupRestartReadsAsFirstSighting(t *testing.T) {
	d := newSharedDedup(1)
	f := flow{src: 1, dst: 4, srcPort: 9}
	const top = dedupWindow + 10
	for seq := uint32(0); seq <= top; seq++ {
		if !d.Observe(f, seq, true) {
			t.Fatalf("seq %d: not a first sighting", seq)
		}
	}
	if d.Observe(f, top-dedupWindow+1, true) {
		t.Fatal("a copy one short of a window behind the top read as new")
	}
	if !d.Observe(f, top-dedupWindow, true) {
		t.Fatal("a sequence a window behind the top did not restart the flow")
	}
	// The window reopened there: what follows it is new, and it is not.
	if !d.Observe(f, top-dedupWindow+1, true) || d.Observe(f, top-dedupWindow, true) {
		t.Fatal("the restarted flow is not judged from its new top")
	}
	if !d.Observe(f, top, true) {
		t.Fatal("the old top read as a copy to the restarted flow")
	}
}

// TestDedupEvictsOldestFlow is the second documented difference: the table
// is bounded by flows, not keys, and a flow opened past the bound forgets
// the oldest-opened one — observed recently or not — whose copies then read
// as new. Neither table ever holds more than dedupFlows flows.
func TestDedupEvictsOldestFlow(t *testing.T) {
	fl := func(i int) flow { return flow{src: wire.NodeID(1 + i%7), srcPort: wire.Port(i), group: 500} }
	d := newSharedDedup(1)
	for i := 0; i < dedupFlows; i++ {
		d.Observe(fl(i), 1, true)
	}
	if d.Observe(fl(0), 1, true) {
		t.Fatal("a copy of the oldest flow read as new inside the bound")
	}
	if !d.Observe(fl(dedupFlows), 1, true) {
		t.Fatal("a new flow's first packet read as a copy")
	}
	if !d.Observe(fl(0), 1, true) {
		t.Fatal("the oldest-opened flow was not forgotten past the bound")
	}
	// Reopening flow 0 forgot flow 1; the newest flow opened before is held.
	if !d.Observe(fl(1), 1, true) || d.Observe(fl(dedupFlows-1), 1, true) {
		t.Fatal("eviction is not oldest-opened first")
	}
	striped := newSharedDedup(dedupStripes)
	for i := 0; i < 3*dedupFlows; i++ {
		striped.Observe(fl(i), uint32(i), true)
	}
	for _, tab := range []*sharedDedup{d, striped} {
		if n := tab.Flows(); n > dedupFlows {
			t.Fatalf("%d stripes: %d flows, bound %d", len(tab.stripes), n, dedupFlows)
		}
	}
}

// TestDedupStripesConcurrent drives a 4-shard table's stripes from four
// goroutines, each observing a copy of every packet of interleaved flows in
// its own order: every (flow, seq) is a first sighting exactly once.
func TestDedupStripesConcurrent(t *testing.T) {
	const nflow, count = 48, 1500
	d := newSharedDedup(dedupStripes)
	firsts := make([]atomic.Int32, nflow*count)
	var wg sync.WaitGroup
	for g := uint64(0); g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(7, g))
			next := make([]int, nflow)
			for left := nflow * count; left > 0; left-- {
				i := rng.IntN(nflow)
				for next[i] == count {
					i = (i + 1) % nflow
				}
				n := next[i]
				next[i]++
				f := flow{src: wire.NodeID(i % 5), dst: 9, srcPort: wire.Port(i), group: wire.GroupID(i % 3)}
				if d.Observe(f, uint32(n)-count/2, true) {
					firsts[i*count+n].Add(1)
				}
			}
		}()
	}
	wg.Wait()
	for i := range firsts {
		if n := firsts[i].Load(); n != 1 {
			t.Fatalf("flow %d seq %d: %d first sightings", i/count, i%count, n)
		}
	}
}

// TestDedupAllocBudget: judging a packet of a flow already open allocates
// nothing, on a one-shard table and on a striped one.
func TestDedupAllocBudget(t *testing.T) {
	f := flow{src: 1, dst: 4, srcPort: 9, dstPort: 100}
	for _, d := range []*sharedDedup{newSharedDedup(1), newSharedDedup(dedupStripes)} {
		seq := uint32(0)
		d.Observe(f, seq, true)
		if avg := testing.AllocsPerRun(1000, func() {
			seq++
			d.Observe(f, seq, true)
			d.Observe(f, seq, true)
		}); avg != 0 {
			t.Fatalf("%d stripes: Observe on an open flow allocates %.1f", len(d.stripes), avg)
		}
	}
}

// TestDedupFootprint: flood and multicast flows across a diamond leave each
// node one window per flow it saw, however many packets each flow sent —
// never more than flows × window bytes — and the plane's Footprint counts
// exactly that.
func TestDedupFootprint(t *testing.T) {
	f := buildWorld(t, diamondGraph(t), nil)
	f.sched.RunFor(200 * time.Millisecond)
	const g wire.GroupID = 500
	f.nodes[2].Groups().Join(g)
	f.nodes[4].Groups().Join(g)
	f.sched.RunFor(500 * time.Millisecond)
	before := map[wire.NodeID]int{}
	for id, n := range f.nodes {
		before[id] = n.DataPlane().Footprint().WindowBytes
	}
	flows := []wire.Packet{
		{Route: wire.RouteFlood, Dst: 4, SrcPort: 1},
		{Route: wire.RouteFlood, Dst: 4, SrcPort: 2},
		{Route: wire.RouteFlood, Dst: 2, SrcPort: 1},
		{Route: wire.RouteMulticast, Group: g, SrcPort: 5},
		{Route: wire.RouteMulticast, Group: g, SrcPort: 6},
	}
	for seq := uint32(0); seq < 40; seq++ {
		for i := range flows {
			p := flows[i]
			p.Type, p.LinkProto, p.FlowSeq = wire.PTData, wire.LPBestEffort, seq
			if err := f.nodes[wire.NodeID(1+i%3)].Originate(&p); err != nil {
				t.Fatal(err)
			}
		}
		f.sched.RunFor(5 * time.Millisecond)
	}
	f.sched.RunFor(time.Second)
	for id, n := range f.nodes {
		fp := n.DataPlane().Footprint()
		tracked, bytes := n.DataPlane().dedup.Flows(), fp.WindowBytes-before[id]
		if tracked == 0 || tracked > len(flows) || fp.DedupEntries != tracked {
			t.Fatalf("node %d tracks %d flows (Footprint says %d) of %d", id, tracked, fp.DedupEntries, len(flows))
		}
		if bytes != tracked*dedupWindow/8 || bytes > len(flows)*dedupWindow/8 {
			t.Fatalf("node %d: Footprint grew %d bytes for %d flows, bound %d", id, bytes, tracked, len(flows)*dedupWindow/8)
		}
	}
}
