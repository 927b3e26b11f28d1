package experiments

import (
	"fmt"
	"testing"

	"sonet/internal/sim"
	"sonet/internal/transport"
	"sonet/internal/wire"
)

// skipAllocsUnderRace skips an allocation budget that flows through
// wire.BufPool: under the race detector sync.Pool randomly drops Puts, so
// pool misses show up as mallocs that do not exist in real builds.
// bench-guard runs without -race.
func skipAllocsUnderRace(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation budget not measurable under -race")
	}
}

func mustWireRig(tb testing.TB, shards, payload int) *wireRig {
	tb.Helper()
	rig, err := newWireRig(shards, false, make([]byte, payload))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rig.close)
	return rig
}

// mustPump drives n datagrams through the flows from one producer per
// flow and fails the run on a stall.
func mustPump(tb testing.TB, flows []*wireFlow, n int) {
	tb.Helper()
	if got := pumpFlows(flows, n, 64); got != uint64(n) {
		tb.Fatalf("pump stalled: %d of %d delivered over %d flows", got, n, len(flows))
	}
}

// allocsPerPacket warms the flows, then pumps them one after another from
// the calling goroutine — so testing.AllocsPerRun sees no goroutine churn —
// and returns allocations per packet, amortized over 64-packet windows.
func allocsPerPacket(t *testing.T, flows []*wireFlow) float64 {
	const window = 64
	serial := func(perFlow int) {
		for f, fl := range flows {
			if got := pumpWire(fl, perFlow, window); got != uint64(perFlow) {
				t.Fatalf("serial pump stalled on flow %d: %d of %d", f, got, perFlow)
			}
		}
	}
	serial(4 * window) // warm every layer's pools, snapshots and sessions
	return testing.AllocsPerRun(50, func() { serial(window) }) / float64(window*len(flows))
}

// benchPump is the body the rig benchmarks share: warm, then one op per
// datagram end to end, reported with the sustained rate.
func benchPump(b *testing.B, flows []*wireFlow) {
	mustPump(b, flows, 64*len(flows)) // warm pools and snapshots
	b.ReportAllocs()
	b.SetBytes(int64(len(flows[0].payload)))
	b.ResetTimer()
	mustPump(b, flows, b.N)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}

// BenchmarkUDPTransport measures the full batched data plane over
// loopback with video-sized payloads: coalesced sendmmsg flushes on the
// way out, recvmmsg batch reads plus snapshot sender lookup on the way
// in, per-flow shard placement in between. The shards=N variants drive N
// flows, one homed on each shard, from N producers into an N-shard
// receiver — EXP-WIRE's scaling rows under the testing.B clock. On a multi-core machine with
// the Linux plane each flow's socket, event loop, and counters are private
// to one shard, so throughput scales with shards until cores or loopback
// saturate.
func BenchmarkUDPTransport(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			rig := mustWireRig(b, shards, 1200)
			benchPump(b, rig.flows)
			st := rig.rx.Stats()
			b.ReportMetric(st.RecvBatchAvg(), "pkts/read")
			b.ReportMetric(float64(st.Handoffs), "handoffs")
		})
	}
}

// BenchmarkUDPBatchRead measures the same plane with monitoring-sized
// 200-byte datagrams, where per-packet overhead dominates and batch
// amortization matters most.
func BenchmarkUDPBatchRead(b *testing.B) {
	rig := mustWireRig(b, 1, 200)
	benchPump(b, rig.flows)
	b.ReportMetric(rig.rx.Stats().RecvBatchAvg(), "pkts/read")
}

// TestUDPTransportAllocBudget is the allocation regression guard for the
// wire fast path (`make bench-guard`): once the buffer pools, slabs, and
// peer snapshot are warm, moving a datagram end to end allocates nothing
// (the pre-batching path cost ~5 per packet: a 64 KiB read buffer, an addr
// string, a payload copy, a closure; the batched one kept a closure and
// two results per kernel crossing until they were bound once per socket —
// transport.TestBatchSyscallAllocBudget holds that at zero). What the
// budget leaves room for is the rig's own: the pump's stall timer and the
// sender's turn-queue closure, four objects per 64-datagram window. It
// holds per shard count — the sim.Handoff rings and their drains must not
// add garbage when delivery fans across shards.
func TestUDPTransportAllocBudget(t *testing.T) {
	skipAllocsUnderRace(t)
	const budget = 0.1
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rig := mustWireRig(t, shards, 1200)
			if perPkt := allocsPerPacket(t, rig.flows); perPkt > budget {
				t.Fatalf("wire path allocates %.2f allocs/packet amortized, budget is %.1f", perPkt, budget)
			}
		})
	}
}

// ---- sharded daemon transit forwarding ----

// daemonFwdID is the transit daemon's node id, skipped by the per-shard
// id picker.
const daemonFwdID = wire.NodeID(400)

// newDaemonFwdRig is the end-to-end transit arena: the wire rig's flows
// with one middle daemon running the sharded protocol plane where the
// bare receiver was. Flow f's source peer hash-homes on daemon shard f (and
// its source port steers there), and a sink underlay standing in for the
// next-hop neighbor, homed on the same shard, counts the forwarded copies.
// On the Linux steered plane a transit frame then arrives on its owner
// shard, is decoded, verified, routed against the copy-on-write forwarding
// snapshot, and retransmitted out that shard's own send ring — never
// crossing a shard boundary. Each flow resends one pre-marshaled frame
// verbatim: link-state unicast skips the dedup window and the best-effort
// link protocol keeps no per-frame state, so the bytes are reusable.
func newDaemonFwdRig(tb testing.TB, shards, payload int) (*transport.Daemon, []*wireFlow) {
	tb.Helper()
	// Pick source and sink node ids homed on each shard. The sink shares
	// the source's home so the egress hop stays on the arrival shard.
	next := wire.NodeID(1)
	pick := func(home int) wire.NodeID {
		for {
			id := next
			next++
			if id != daemonFwdID && wire.HomeShard(id, shards) == home {
				return id
			}
		}
	}
	src, dst := make([]wire.NodeID, shards), make([]wire.NodeID, shards)
	var links []transport.LinkDef
	for f := range src {
		src[f], dst[f] = pick(f), pick(f)
		links = append(links,
			transport.LinkDef{A: src[f], B: daemonFwdID, LatencyMs: 1},
			transport.LinkDef{A: daemonFwdID, B: dst[f], LatencyMs: 1},
		)
	}
	d, err := transport.NewDaemon(transport.DaemonConfig{
		ID: daemonFwdID, BindUDP: "127.0.0.1:0", Links: links,
		HelloIntervalMs: 3600000, Shards: shards,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(d.Close)
	flows, err := newWireFlows(shards, daemonFwdID, d.UDPAddr(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { closeFlows(flows) })
	for f, fl := range flows {
		sink, err := transport.NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(_ wire.NodeID, data []byte) {
			// Count forwarded data frames only; the daemon also hellos
			// its neighbors at startup.
			if len(data) >= 2 && wire.FrameKind(data[1]) == wire.FData {
				fl.hit()
			}
		})
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = sink.Close() })
		if err := sink.AddPeer(daemonFwdID, d.UDPAddr()); err != nil {
			tb.Fatal(err)
		}
		if err := d.AddPeer(src[f], fl.tx.LocalAddr()); err != nil {
			tb.Fatal(err)
		}
		if err := d.AddPeer(dst[f], sink.LocalAddr()); err != nil {
			tb.Fatal(err)
		}
		frame := &wire.Frame{
			Proto: wire.LPBestEffort, Kind: wire.FData, Seq: 1,
			Packet: &wire.Packet{
				Type: wire.PTData, Route: wire.RouteLinkState,
				LinkProto: wire.LPBestEffort, TTL: 8,
				Src: src[f], Dst: dst[f], FlowSeq: 1,
				Payload: make([]byte, payload),
			},
		}
		if fl.payload, err = frame.Marshal(); err != nil {
			tb.Fatal(err)
		}
	}
	return d, flows
}

// BenchmarkDaemonForwarding measures end-to-end transit forwarding
// through the full deployed protocol stack: recvmmsg batch read and
// reuseport flow steering, zero-copy frame decode and verification on the
// arrival shard, link-protocol receive, a routing decision against the
// lock-free copy-on-write forwarding snapshot, in-place TTL accounting,
// pooled re-encode, and a coalesced sendmmsg flush out the same shard's
// ring. One op is one video-sized frame through the daemon; pps is the
// sustained transit rate. The shards=N variants drive one flow per shard,
// each homed on its arrival shard — on the Linux steered plane the whole
// path runs on the owner shard and the handoffs metric must stay zero.
func BenchmarkDaemonForwarding(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			d, flows := newDaemonFwdRig(b, shards, 1200)
			benchPump(b, flows)
			var handoffs uint64
			for i := 0; i < d.Shards(); i++ {
				handoffs += d.ShardStats(i).Handoffs
			}
			b.ReportMetric(float64(handoffs), "handoffs")
			if d.SteeredRx() && handoffs != 0 {
				b.Fatalf("transit frames crossed shards %d times on the steered plane, want 0", handoffs)
			}
		})
	}
}

// TestDaemonForwardingAllocBudget is the allocation regression guard for
// the sharded transit path (`make bench-guard`): once the buffer pools,
// peer snapshot, link sessions, and forwarding snapshot are warm, moving
// a frame through the whole daemon — wire rx, shard protocol engine, wire
// tx — must not allocate (amortized under one allocation per packet, the
// same budget the raw wire path holds; the protocol layer itself must add
// zero).
func TestDaemonForwardingAllocBudget(t *testing.T) {
	skipAllocsUnderRace(t)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			_, flows := newDaemonFwdRig(t, shards, 1200)
			if perPkt := allocsPerPacket(t, flows); perPkt > 1 {
				t.Fatalf("daemon forwarding allocates %.2f allocs/packet amortized, budget is 1", perPkt)
			}
		})
	}
}
