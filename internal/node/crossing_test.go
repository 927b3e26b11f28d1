package node

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonet/internal/link"
	"sonet/internal/wire"
)

// unicast is a best-effort data frame on link-state routing, which skips
// the dedup table, so the same frame can be injected any number of times.
func unicast(src, dst wire.NodeID, seq uint32) *wire.Frame {
	return dataFrame(wire.Packet{
		Route: wire.RouteLinkState, LinkProto: wire.LPBestEffort,
		Src: src, Dst: dst, FlowSeq: seq, Payload: []byte("crossing payload"),
	})
}

func marshalFrame(t *testing.T, f *wire.Frame) []byte {
	t.Helper()
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// hold parks shard's loop until the returned release is called.
func (r *shardRig) hold(shard int) (release func()) {
	gate, parked := make(chan struct{}), make(chan struct{})
	r.loops.PostTo(shard, func() { close(parked); <-gate })
	<-parked
	return func() { close(gate) }
}

// stats reads shard's own counters on its loop.
func (r *shardRig) stats(shard int) Stats {
	var st Stats
	r.on(shard, func() { st = r.n.plane.shards[shard].stats })
	return st
}

// egressSeqs decodes the FlowSeq of every recorded transmission, in the
// order the underlay saw them.
func (r *shardRig) egressSeqs(t *testing.T) []uint32 {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	seqs := make([]uint32, len(r.egress))
	for i, rec := range r.egress {
		f, _, err := wire.UnmarshalFrame(mustHex(t, rec))
		if err != nil {
			t.Fatal(err)
		}
		seqs[i] = f.Packet.FlowSeq
	}
	return seqs
}

func wantAscending(t *testing.T, what string, seqs []uint32, n int) {
	t.Helper()
	if len(seqs) != n {
		t.Fatalf("%s: %d records, want %d", what, len(seqs), n)
	}
	for i, s := range seqs {
		if s != uint32(i+1) {
			t.Fatalf("%s: record %d carries seq %d; the pair's ring must be FIFO", what, i, s)
		}
	}
}

// TestCrossingPerPairFIFO sends more records than one drain's quota over
// each direction of the (0, 1) pair in a single loop turn — a burst that
// crosses with one post and one re-post — and requires arrival order.
func TestCrossingPerPairFIFO(t *testing.T) {
	const n = crossingDrainQuota + 50
	r := newShardRig(t, nil)
	var mu sync.Mutex
	var delivered []uint32
	r.on(0, func() {
		r.n.SetDeliver(func(p *wire.Packet) {
			mu.Lock()
			delivered = append(delivered, p.FlowSeq)
			mu.Unlock()
		})
	})
	toSelf, toA1 := make([][]byte, n), make([][]byte, n)
	for i := range toSelf {
		toSelf[i] = marshalFrame(t, unicast(r.a1, r.self, uint32(i+1)))
		toA1[i] = marshalFrame(t, unicast(r.c0, r.a1, uint32(i+1)))
	}
	r.on(1, func() {
		for _, b := range toSelf {
			r.n.DataPlane().HandleUnderlay(1, r.a1, b)
		}
	})
	r.on(0, func() {
		for _, b := range toA1 {
			r.n.DataPlane().HandleUnderlay(0, r.c0, b)
		}
	})
	r.settle()
	mu.Lock()
	wantAscending(t, "delivery 1→0", delivered, n)
	mu.Unlock()
	wantAscending(t, "egress 0→1", r.egressSeqs(t), n)
}

// TestCrossingRingFull fills a pair's ring behind a parked target loop.
// At origination the refusal is the typed backpressure error; in transit
// and at delivery it is DroppedCrossing, which Merge carries into the
// plane-wide counters. Everything the ring did take arrives once the
// target runs again.
func TestCrossingRingFull(t *testing.T) {
	const over = 7
	r := newShardRig(t, nil)

	release := r.hold(1)
	var accepted, refused, other int
	r.on(0, func() {
		for i := 0; i < crossingRingCap+over; i++ {
			err := r.n.Originate(&wire.Packet{
				Type: wire.PTData, Route: wire.RouteLinkState, LinkProto: wire.LPBestEffort,
				Dst: r.a1, FlowSeq: uint32(i + 1), Payload: []byte("originated"),
			})
			switch {
			case err == nil:
				accepted++
			case errors.Is(err, link.ErrBackpressure):
				refused++
			default:
				other++
			}
		}
		// A transit packet toward the same full ring is dropped and counted.
		r.n.DataPlane().HandleUnderlay(0, r.c0, marshalFrame(t, unicast(r.c0, r.a1, 1)))
	})
	if accepted != crossingRingCap || refused != over || other != 0 {
		t.Fatalf("origination into a full ring: %d accepted, %d backpressure, %d other errors; want %d, %d, 0",
			accepted, refused, other, crossingRingCap, over)
	}
	if st := r.stats(0); st.DroppedCrossing != 1 || st.Originated != crossingRingCap+over {
		t.Fatalf("shard 0 counters %+v, want 1 DroppedCrossing and every origination counted", st)
	}
	release()
	r.settle()
	if got := len(r.egressSeqs(t)); got != crossingRingCap {
		t.Fatalf("%d packets left after the ring drained, want the %d it took", got, crossingRingCap)
	}

	release = r.hold(0)
	frame := marshalFrame(t, unicast(r.a1, r.self, 1))
	r.on(1, func() {
		for i := 0; i < crossingRingCap+over; i++ {
			r.n.DataPlane().HandleUnderlay(1, r.a1, frame)
		}
	})
	release()
	r.settle()
	out := r.outcome()
	if len(out.Local) != crossingRingCap {
		t.Fatalf("%d deliveries, want the %d the ring took", len(out.Local), crossingRingCap)
	}
	if out.Stats.DroppedCrossing != 1+over {
		t.Fatalf("merged DroppedCrossing = %d, want %d", out.Stats.DroppedCrossing, 1+over)
	}
}

// TestDataPlaneCloseReleasesCrossings closes a plane with records still in
// its rings, both directions, and requires every captured buffer back in
// the pool and no record run on a closed shard.
func TestDataPlaneCloseReleasesCrossings(t *testing.T) {
	const n = crossingDrainQuota + 50 // more than the drain already queued will take
	r := newShardRig(t, nil)
	pool := wire.DefaultBufPool.Stats()
	before := pool.Snapshot()

	toSelf, toA1 := marshalFrame(t, unicast(r.a1, r.self, 1)), marshalFrame(t, unicast(r.c0, r.a1, 1))
	release1 := r.hold(1)
	r.on(0, func() {
		for i := 0; i < n; i++ {
			r.n.DataPlane().HandleUnderlay(0, r.c0, toA1)
		}
	})
	release0 := r.hold(0)
	// Shard 1 is parked: this runs once it is released, before its close.
	r.loops.PostTo(1, func() {
		for i := 0; i < n; i++ {
			r.n.DataPlane().HandleUnderlay(1, r.a1, toSelf)
		}
	})
	r.loops.PostTo(0, r.n.Stop)
	// Close posts shard 1's close behind everything shard 1 has queued. It
	// must be queued before shard 1 runs again: a drain that ran first would
	// re-post its remainder ahead of the close, and those records would be
	// sent. Nothing else posts to shard 1 while both shards are parked.
	shard1 := r.loops.Shard(1)
	queued := shard1.Pending()
	closed := make(chan struct{})
	go func() { r.n.DataPlane().Close(); close(closed) }()
	for limit := time.Now().Add(5 * time.Second); shard1.Pending() == queued; runtime.Gosched() {
		if time.Now().After(limit) {
			t.Fatal("DataPlane.Close did not post shard 1's close")
		}
	}
	release1()
	release0()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("DataPlane.Close did not return")
	}

	after := pool.Snapshot()
	gets := (after.Hits + after.Misses) - (before.Hits + before.Misses)
	// Every buffer in this test is of the smallest class, so recycled
	// bytes count releases.
	const class = 256
	if recycled := after.Recycled - before.Recycled; recycled != gets*class {
		t.Fatalf("pool handed out %d buffers and got %d back", gets, recycled/class)
	}
	if gets < 2*n {
		t.Fatalf("only %d buffers drawn; the test did not put %d records in each ring", gets, n)
	}
	for _, from := range r.n.plane.shards {
		for to := range from.out {
			if ring := from.out[to].Load(); ring != nil && !ring.Empty() {
				t.Errorf("ring %d→%d still holds %d records after Close", from.idx, to, ring.Len())
			}
		}
	}
	if got := len(r.egressSeqs(t)); got > crossingDrainQuota {
		t.Errorf("%d transmissions: shard 1 ran egress records after it closed", got)
	}
}

// withFanout gives the rig's node one more neighbor homed on every shard
// past the two the star already covers, so traffic can cross every pair.
func withFanout(extra *[]wire.NodeID) func(*shardRig, *Config) {
	return func(r *shardRig, cfg *Config) {
		nshard := rigShards()
		taken := map[wire.NodeID]bool{r.self: true, r.a1: true, r.b1: true, r.c0: true, r.d0: true, r.far: true}
		for home := 2; home < nshard; home++ {
			id := wire.NodeID(2)
			for taken[id] || wire.HomeShard(id, nshard) != home {
				id++
			}
			taken[id] = true
			if _, err := cfg.Graph.AddLink(r.self, id, time.Millisecond); err != nil {
				r.t.Fatal(err)
			}
			*extra = append(*extra, id)
		}
	}
}

// TestCrossingStress runs originated, transit and self-addressed traffic
// over every ordered shard pair at once, from one goroutine per shard,
// while the control loop admits a new neighbor and resets link sessions
// under it. Under -race this is the crossing's memory-model test; the
// final ledger must account for every packet.
func TestCrossingStress(t *testing.T) {
	const rounds = 200
	var extra []wire.NodeID
	r := newShardRig(t, withFanout(&extra))
	nshard := rigShards()
	// One neighbor per home shard.
	nbr := append([]wire.NodeID{r.c0, r.a1}, extra...)
	var delivered atomic.Uint64
	r.on(0, func() { r.n.SetDeliver(func(*wire.Packet) { delivered.Add(1) }) })

	var wg sync.WaitGroup
	for shard := 0; shard < nshard; shard++ {
		from := nbr[shard]
		frames := [][]byte{marshalFrame(t, unicast(from, r.self, 1))}
		for _, to := range nbr {
			if to != from {
				frames = append(frames, marshalFrame(t, unicast(from, to, 1)))
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.on(shard, func() {
					for _, b := range frames {
						r.n.DataPlane().HandleUnderlay(shard, from, b)
					}
				})
			}
		}()
	}
	wg.Add(2)
	var originated int
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			r.on(0, func() {
				for _, to := range nbr {
					err := r.n.Originate(&wire.Packet{
						Type: wire.PTData, Route: wire.RouteLinkState, LinkProto: wire.LPBestEffort,
						Dst: to, FlowSeq: uint32(i + 1), Payload: []byte("originated"),
					})
					if err == nil {
						originated++
					} else if !errors.Is(err, link.ErrBackpressure) {
						t.Error(err)
					}
				}
			})
		}
	}()
	go func() {
		defer wg.Done()
		newcomer := wire.NodeID(5000)
		for i := 0; i < rounds; i++ {
			r.on(0, func() {
				if i == rounds/2 {
					if err := r.n.LearnLink(r.self, newcomer, time.Millisecond); err != nil {
						t.Error(err)
					}
				}
				r.n.plane.resetPeer(nbr[i%len(nbr)])
			})
		}
	}()
	wg.Wait()
	r.settle()

	st := r.outcome().Stats
	perShard := uint64(rounds * nshard)
	if got := delivered.Load() + st.DroppedCrossing; got < perShard || st.DeliveredLocal != perShard {
		t.Errorf("self-addressed: %d delivered + %d crossing drops, DeliveredLocal %d; want %d decided and none lost",
			delivered.Load(), st.DroppedCrossing, st.DeliveredLocal, perShard)
	}
	transit := uint64(rounds * nshard * (nshard - 1))
	if got := st.Forwarded + st.DroppedCrossing; got < transit+uint64(originated) {
		t.Errorf("forwarded %d + crossing drops %d < %d transit + %d originated",
			st.Forwarded, st.DroppedCrossing, transit, originated)
	}
	if st.DroppedUnknownPeer != 0 || st.DroppedNoRoute != 0 {
		t.Errorf("unexpected drops: %+v", st)
	}
}

// TestAdmittedPeerIsHomedByHash is the regression test for runtime
// admission homing every new peer on shard 0 while the underlay delivered
// its frames on wire.HomeShard: every data frame the peer sent then
// arrived off its home.
func TestAdmittedPeerIsHomedByHash(t *testing.T) {
	const frames = 32
	r := newShardRig(t, nil)
	nshard := rigShards()
	peer := wire.NodeID(5000)
	for wire.HomeShard(peer, nshard) != 1 {
		peer++
	}
	r.on(0, func() {
		if err := r.n.LearnLink(r.self, peer, time.Millisecond); err != nil {
			t.Error(err)
		}
	})
	r.settle()
	// Transit toward a neighbor of the same home: on its home shard the
	// admitted peer's traffic never leaves the loop it arrived on.
	for i := 0; i < frames; i++ {
		r.inject(1, peer, unicast(peer, r.a1, uint32(i+1)))
	}
	out := r.outcome()
	if out.Stats.DroppedUnknownPeer != 0 {
		t.Fatalf("admitted peer's frames on shard %d: %+v; want none unknown",
			wire.HomeShard(peer, nshard), out.Stats)
	}
	if len(out.Egress) != frames {
		t.Fatalf("%d transmissions, want %d", len(out.Egress), frames)
	}
	for _, from := range r.n.plane.shards {
		for to := range from.out {
			if from.out[to].Load() != nil {
				t.Errorf("ring %d→%d exists: a frame crossed shards", from.idx, to)
			}
		}
	}
}

// TestMisroutedFrameIsDropped feeds a data shard the two frames the
// ownership rule never sends it — a hello, which is shard 0's, and a data
// frame from a peer homed on shard 1 — and requires both counted as
// unknown-peer drops, with no link endpoint built and nothing delivered
// or sent.
func TestMisroutedFrameIsDropped(t *testing.T) {
	t.Setenv("SONET_DAEMON_SHARDS", "4")
	r := newShardRig(t, nil)
	r.inject(2, r.a1, &wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FHello})
	r.inject(2, r.a1, unicast(r.a1, r.self, 1))
	if out := r.outcome(); out.Stats != (Stats{DroppedUnknownPeer: 2}) || len(out.Local) != 0 || len(out.Egress) != 0 {
		t.Fatalf("%d deliveries, %d transmissions, %+v; want nothing but two unknown-peer drops",
			len(out.Local), len(out.Egress), out.Stats)
	}
	for _, s := range r.n.plane.shards[1:] {
		r.on(s.idx, func() {
			if n := builtEndpoints(s.peers[r.a1]); n != 0 {
				t.Errorf("shard %d built %d link endpoints for the misrouted peer", s.idx, n)
			}
		})
	}
}

// builtEndpoints counts the link-protocol endpoints a peer entry holds.
func builtEndpoints(pr *peer) int {
	n := 0
	for _, p := range pr.protos {
		if p != nil {
			n++
		}
	}
	return n
}

// countingUnderlay counts transmissions and allocates nothing.
type countingUnderlay struct{ sent atomic.Uint64 }

func (u *countingUnderlay) Send(wire.NodeID, uint8, []byte)        { u.sent.Add(1) }
func (u *countingUnderlay) SendOn(int, wire.NodeID, uint8, []byte) { u.sent.Add(1) }
func (u *countingUnderlay) PathCount(wire.NodeID) int              { return 1 }

// arrivalRunner injects one pre-marshaled frame on a shard's loop without
// a closure.
type arrivalRunner struct {
	pl    *DataPlane
	shard int
	from  wire.NodeID
	data  []byte
}

func (a *arrivalRunner) Run() { a.pl.HandleUnderlay(a.shard, a.from, a.data) }

// TestShardCrossingAllocBudget holds the two crossings every message of a
// sharded chain pays — egress toward a neighbor homed on another shard,
// and delivery from a data shard to the session level on shard 0 — to
// zero allocations in steady state: the record travels by value, its
// packet in a pooled buffer, and the drain is one pre-allocated runner.
func TestShardCrossingAllocBudget(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation budget not measurable under -race")
	}
	under := &countingUnderlay{}
	r := newShardRig(t, func(_ *shardRig, cfg *Config) { cfg.Underlay = under })
	var delivered atomic.Uint64
	r.on(0, func() { r.n.SetDeliver(func(*wire.Packet) { delivered.Add(1) }) })
	pl := r.n.DataPlane()
	payload := make([]byte, 1200)
	video := func(src, dst wire.NodeID) []byte {
		f := unicast(src, dst, 1)
		f.Packet.Payload = payload
		return marshalFrame(t, f)
	}
	egress := &arrivalRunner{pl: pl, shard: 0, from: r.c0, data: video(r.c0, r.a1)}
	deliver := &arrivalRunner{pl: pl, shard: 1, from: r.a1, data: video(r.a1, r.self)}
	var round uint64
	cross := func() {
		round++
		r.loops.Shard(0).PostRunner(egress)
		r.loops.Shard(1).PostRunner(deliver)
		for under.sent.Load() < round || delivered.Load() < round {
			runtime.Gosched()
		}
	}
	for i := 0; i < 64; i++ { // build the rings, size the loop queues, warm the pool
		cross()
	}
	if allocs := testing.AllocsPerRun(200, cross); allocs != 0 {
		t.Fatalf("an egress crossing plus a delivery crossing allocate %.2f objects, budget is 0", allocs)
	}
	if st := r.outcome().Stats; st.DroppedCrossing != 0 || st.Forwarded != round || st.DeliveredLocal != round {
		t.Fatalf("after %d rounds: %+v", round, st)
	}
}
