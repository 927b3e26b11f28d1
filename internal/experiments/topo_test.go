package experiments

import (
	"testing"
	"time"

	"sonet/internal/netemu"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// netemuSendFixture builds a stable 14-site, 3-ISP underlay (the
// continental fiber plan replicated across three providers with slightly
// different latencies) and attaches one bare handler per site, so a Send
// costs the underlay alone.
func netemuSendFixture(tb testing.TB) (*sim.Scheduler, *netemu.Network, *int) {
	tb.Helper()
	sched := sim.NewScheduler(1)
	net := netemu.New(sched, netemu.DefaultConfig())
	sites := make([]netemu.SiteID, MSP+1)
	for id := NYC; id <= MSP; id++ {
		sites[id] = net.AddSite(continentalNames[id])
	}
	for p := 0; p < 3; p++ {
		isp := net.AddISP(string(rune('A' + p)))
		for _, l := range continentalLinks(nil) {
			lat := l.Latency + time.Duration(p)*time.Millisecond
			if _, err := net.AddFiber(isp, sites[l.A], sites[l.B], lat, 0, nil); err != nil {
				tb.Fatal(err)
			}
		}
	}
	delivered := new(int)
	for id := NYC; id <= MSP; id++ {
		if err := net.AttachNode(id, sites[id], func(wire.NodeID, []byte) { *delivered++ }); err != nil {
			tb.Fatal(err)
		}
	}
	return sched, net, delivered
}

// BenchmarkNetemuSend measures the per-packet cost of the emulated
// underlay on a stable multi-ISP topology: route computation (cached
// after the first packet per (src,dst,provider)), per-fiber loss/latency
// accounting, pooled payload copy, and delivery dispatch through the
// scheduler. Steady state must be allocation-free — this is the hot loop
// under every EXP-* scenario.
func BenchmarkNetemuSend(b *testing.B) {
	sched, net, delivered := netemuSendFixture(b)
	payload := make([]byte, 200)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Coast to coast (multi-hop), rotating across the three providers.
		net.Send(NYC, SFO, netemu.ISPID(i%3), payload)
		sched.Run()
	}
	b.StopTimer()
	if *delivered != b.N {
		b.Fatalf("delivered %d of %d", *delivered, b.N)
	}
	st := net.Stats()
	if st.Sent != uint64(b.N) || st.Delivered != uint64(b.N) {
		b.Fatalf("stats = %+v", st)
	}
}

// TestNetemuSendAllocBudget is the allocation regression guard for the
// underlay fast path (`make bench-guard`): once the route cache, buffer
// pool, and delivery-event pool are warm, a Send on a stable topology must
// not allocate.
func TestNetemuSendAllocBudget(t *testing.T) {
	sched, net, _ := netemuSendFixture(t)
	payload := make([]byte, 200)
	send := func() {
		net.Send(NYC, SFO, 0, payload)
		sched.Run()
	}
	for i := 0; i < 64; i++ {
		send() // warm the route cache and the buffer/event pools
	}
	if avg := testing.AllocsPerRun(200, send); avg > 0 {
		t.Fatalf("netemu.Send allocates %.2f allocs/op on a stable topology, budget is 0", avg)
	}
}

// BenchmarkDisjointPaths measures the k-node-disjoint-path computation on
// the 14-node continental topology (run per route change).
func BenchmarkDisjointPaths(b *testing.B) {
	g := topology.NewGraph()
	for _, l := range continentalLinks(nil) {
		if _, err := g.AddLink(l.A, l.B, l.Latency); err != nil {
			b.Fatal(err)
		}
	}
	v := topology.NewView(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, err := topology.KDisjointPaths(v, NYC, SFO, 3, topology.LatencyMetric)
		if err != nil || len(paths) != 3 {
			b.Fatalf("paths=%d err=%v", len(paths), err)
		}
	}
}
