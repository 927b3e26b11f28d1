package netemu

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// twoSiteWorld wires nodes 1 and 2 into sites A and B joined by one fiber
// on one ISP, returning the received payload log for node 2.
func twoSiteWorld(t *testing.T, loss LossModel) (*sim.Scheduler, *Network, FiberID, *[]string) {
	t.Helper()
	sched := sim.NewScheduler(11)
	net := New(sched, DefaultConfig())
	a := net.AddSite("A")
	b := net.AddSite("B")
	isp := net.AddISP("isp1")
	fid, err := net.AddFiber(isp, a, b, 10*time.Millisecond, 0, loss)
	if err != nil {
		t.Fatalf("AddFiber: %v", err)
	}
	var got []string
	if err := net.AttachNode(1, a, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatalf("AttachNode: %v", err)
	}
	err = net.AttachNode(2, b, func(from wire.NodeID, data []byte) {
		got = append(got, string(data))
	})
	if err != nil {
		t.Fatalf("AttachNode: %v", err)
	}
	return sched, net, fid, &got
}

// assertStatsIdentity checks the Stats accounting invariant: every sent
// packet ends in exactly one outcome counter.
func assertStatsIdentity(t *testing.T, net *Network) {
	t.Helper()
	st := net.Stats()
	if st.Sent != st.Delivered+st.DroppedLoss+st.DroppedDown+st.DroppedNoRoute {
		t.Fatalf("stats identity violated: %+v", st)
	}
}

func TestSendDeliversWithLatency(t *testing.T) {
	sched, net, _, got := twoSiteWorld(t, NoLoss{})
	var deliveredAt time.Duration
	net.nodes[2].handler = func(from wire.NodeID, data []byte) {
		deliveredAt = sched.Now()
		*got = append(*got, string(data))
	}
	net.Send(1, 2, 0, []byte("hello"))
	sched.Run()
	if len(*got) != 1 || (*got)[0] != "hello" {
		t.Fatalf("received %v, want [hello]", *got)
	}
	if deliveredAt != 10*time.Millisecond {
		t.Fatalf("delivered at %v, want 10ms", deliveredAt)
	}
	st := net.Stats()
	if st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	sched, net, _, got := twoSiteWorld(t, NoLoss{})
	buf := []byte("abc")
	net.Send(1, 2, 0, buf)
	buf[0] = 'X'
	sched.Run()
	if (*got)[0] != "abc" {
		t.Fatalf("payload mutated in flight: %q", (*got)[0])
	}
}

func TestBernoulliLossRate(t *testing.T) {
	sched, net, _, got := twoSiteWorld(t, Bernoulli{P: 0.3})
	const n = 20000
	for i := 0; i < n; i++ {
		net.Send(1, 2, 0, []byte("x"))
	}
	sched.Run()
	rate := 1 - float64(len(*got))/n
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("observed loss %.3f, want ~0.30", rate)
	}
}

func TestCutFiberDropsUntilConvergence(t *testing.T) {
	sched, net, fid, got := twoSiteWorld(t, NoLoss{})
	net.CutFiber(fid)
	net.Send(1, 2, 0, []byte("during"))
	sched.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatalf("packet crossed a cut fiber: %v", *got)
	}
	if net.Stats().DroppedDown != 1 {
		t.Fatalf("DroppedDown = %d, want 1", net.Stats().DroppedDown)
	}
	// After convergence there is no alternate route: drops become NoRoute.
	sched.RunFor(45 * time.Second)
	net.Send(1, 2, 0, []byte("after"))
	sched.RunFor(time.Second)
	if len(*got) != 0 {
		t.Fatalf("packet delivered with no route: %v", *got)
	}
	if net.Stats().DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", net.Stats().DroppedNoRoute)
	}
}

func TestRerouteAfterConvergence(t *testing.T) {
	// Triangle: A-B direct (10ms) plus A-C-B detour (15+15ms).
	sched := sim.NewScheduler(5)
	net := New(sched, Config{ConvergenceDelay: 40 * time.Second})
	a := net.AddSite("A")
	b := net.AddSite("B")
	c := net.AddSite("C")
	isp := net.AddISP("isp1")
	direct, err := net.AddFiber(isp, a, b, 10*time.Millisecond, 0, NoLoss{})
	if err != nil {
		t.Fatalf("AddFiber: %v", err)
	}
	if _, err := net.AddFiber(isp, a, c, 15*time.Millisecond, 0, NoLoss{}); err != nil {
		t.Fatalf("AddFiber: %v", err)
	}
	if _, err := net.AddFiber(isp, c, b, 15*time.Millisecond, 0, NoLoss{}); err != nil {
		t.Fatalf("AddFiber: %v", err)
	}
	var deliveries []time.Duration
	var sentAt []time.Duration
	if err := net.AttachNode(1, a, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatalf("AttachNode: %v", err)
	}
	err = net.AttachNode(2, b, func(wire.NodeID, []byte) {
		deliveries = append(deliveries, sched.Now())
	})
	if err != nil {
		t.Fatalf("AttachNode: %v", err)
	}

	if lat, ok := net.PathLatency(1, 2, isp); !ok || lat != 10*time.Millisecond {
		t.Fatalf("PathLatency = %v,%v, want 10ms", lat, ok)
	}

	net.CutFiber(direct)
	// During convergence the old route is used and dies at the cut.
	net.Send(1, 2, isp, []byte("x"))
	sentAt = append(sentAt, sched.Now())
	sched.RunFor(41 * time.Second)
	if len(deliveries) != 0 {
		t.Fatal("delivered across cut fiber during convergence")
	}
	// After convergence the detour carries traffic at 30ms.
	if lat, ok := net.PathLatency(1, 2, isp); !ok || lat != 30*time.Millisecond {
		t.Fatalf("post-convergence PathLatency = %v,%v, want 30ms", lat, ok)
	}
	start := sched.Now()
	net.Send(1, 2, isp, []byte("y"))
	sched.RunFor(time.Second)
	if len(deliveries) != 1 {
		t.Fatalf("deliveries = %d, want 1", len(deliveries))
	}
	if d := deliveries[0] - start; d != 30*time.Millisecond {
		t.Fatalf("detour latency = %v, want 30ms", d)
	}
	// Restoration also takes convergence time.
	net.RestoreFiber(direct)
	sched.RunFor(41 * time.Second)
	if lat, ok := net.PathLatency(1, 2, isp); !ok || lat != 10*time.Millisecond {
		t.Fatalf("post-restore PathLatency = %v,%v, want 10ms", lat, ok)
	}
	_ = sentAt
}

func TestMultipleISPsAreIndependent(t *testing.T) {
	sched := sim.NewScheduler(5)
	net := New(sched, DefaultConfig())
	a := net.AddSite("A")
	b := net.AddSite("B")
	isp1 := net.AddISP("isp1")
	isp2 := net.AddISP("isp2")
	f1, err := net.AddFiber(isp1, a, b, 10*time.Millisecond, 0, NoLoss{})
	if err != nil {
		t.Fatalf("AddFiber: %v", err)
	}
	if _, err = net.AddFiber(isp2, a, b, 12*time.Millisecond, 0, NoLoss{}); err != nil {
		t.Fatalf("AddFiber: %v", err)
	}
	var got int
	if err := net.AttachNode(1, a, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatalf("AttachNode: %v", err)
	}
	if err := net.AttachNode(2, b, func(wire.NodeID, []byte) { got++ }); err != nil {
		t.Fatalf("AttachNode: %v", err)
	}
	net.CutFiber(f1)
	net.Send(1, 2, isp1, []byte("dead"))
	net.Send(1, 2, isp2, []byte("alive"))
	sched.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("delivered %d, want 1 (only via isp2)", got)
	}
}

func TestISPExtraLossBrownOut(t *testing.T) {
	sched, net, _, got := twoSiteWorld(t, NoLoss{})
	net.SetISPExtraLoss(0, 0.5)
	const n = 10000
	for i := 0; i < n; i++ {
		net.Send(1, 2, 0, []byte("x"))
	}
	sched.Run()
	rate := 1 - float64(len(*got))/n
	if math.Abs(rate-0.5) > 0.03 {
		t.Fatalf("brown-out loss %.3f, want ~0.5", rate)
	}
}

func TestSiteFailureKillsTraffic(t *testing.T) {
	sched, net, _, got := twoSiteWorld(t, NoLoss{})
	net.SetSiteUp(1, false) // site B
	net.Send(1, 2, 0, []byte("x"))
	sched.Run()
	if len(*got) != 0 {
		t.Fatal("delivered to a dead site")
	}
}

func TestSiteFailureMidFlight(t *testing.T) {
	sched, net, _, got := twoSiteWorld(t, NoLoss{})
	net.Send(1, 2, 0, []byte("x"))
	sched.After(5*time.Millisecond, func() { net.SetSiteUp(1, false) })
	sched.Run()
	if len(*got) != 0 {
		t.Fatal("delivered to a site that died mid-flight")
	}
}

func TestJitterWithinBounds(t *testing.T) {
	sched := sim.NewScheduler(9)
	net := New(sched, DefaultConfig())
	a := net.AddSite("A")
	b := net.AddSite("B")
	isp := net.AddISP("isp1")
	if _, err := net.AddFiber(isp, a, b, 10*time.Millisecond, 5*time.Millisecond, NoLoss{}); err != nil {
		t.Fatalf("AddFiber: %v", err)
	}
	var lats []time.Duration
	if err := net.AttachNode(1, a, func(wire.NodeID, []byte) {}); err != nil {
		t.Fatalf("AttachNode: %v", err)
	}
	var sendTime time.Duration
	err := net.AttachNode(2, b, func(wire.NodeID, []byte) {
		lats = append(lats, sched.Now()-sendTime)
	})
	if err != nil {
		t.Fatalf("AttachNode: %v", err)
	}
	for i := 0; i < 200; i++ {
		sendTime = sched.Now()
		net.Send(1, 2, isp, []byte("x"))
		sched.Run()
	}
	varied := false
	for _, l := range lats {
		if l < 10*time.Millisecond || l >= 15*time.Millisecond {
			t.Fatalf("latency %v outside [10ms,15ms)", l)
		}
		if l != lats[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jitter produced identical latencies")
	}
}

func TestGilbertElliottBurstiness(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	ge := NewGilbertElliott(0.01, 0.25, 0, 1)
	const n = 200000
	losses := make([]bool, n)
	lost := 0
	for i := range losses {
		// One packet per chain step: per-packet and per-time behaviour
		// coincide.
		losses[i] = ge.Drop(time.Duration(i)*time.Millisecond, rng)
		if losses[i] {
			lost++
		}
	}
	rate := float64(lost) / n
	want := ge.AverageLoss()
	if math.Abs(rate-want) > 0.01 {
		t.Fatalf("observed loss %.4f, steady-state %.4f", rate, want)
	}
	// Burstiness: P(loss | previous loss) must far exceed the base rate.
	both, prev := 0, 0
	for i := 1; i < n; i++ {
		if losses[i-1] {
			prev++
			if losses[i] {
				both++
			}
		}
	}
	condLoss := float64(both) / float64(prev)
	if condLoss < 3*rate {
		t.Fatalf("conditional loss %.3f not bursty vs base %.3f", condLoss, rate)
	}
}

func TestGilbertElliottDegenerate(t *testing.T) {
	ge := NewGilbertElliott(0, 0, 0.1, 1)
	_ = ge.Drop(0, rand.New(rand.NewPCG(1, 1)))
	if got := ge.AverageLoss(); got != 0.1 {
		t.Fatalf("AverageLoss = %v, want 0.1 (stuck good)", got)
	}
	ge.bad = true
	if got := ge.AverageLoss(); got != 1.0 {
		t.Fatalf("AverageLoss = %v, want 1.0 (stuck bad)", got)
	}
}

func TestAddFiberValidation(t *testing.T) {
	sched := sim.NewScheduler(1)
	net := New(sched, DefaultConfig())
	a := net.AddSite("A")
	if _, err := net.AddFiber(9, a, a, time.Millisecond, 0, nil); err == nil {
		t.Fatal("AddFiber accepted unknown ISP")
	}
	isp := net.AddISP("isp1")
	if _, err := net.AddFiber(isp, a, a, time.Millisecond, 0, nil); err == nil {
		t.Fatal("AddFiber accepted self-loop")
	}
}

func TestSendToUnknownNodeCountsNoRoute(t *testing.T) {
	sched, net, _, _ := twoSiteWorld(t, NoLoss{})
	net.Send(1, 99, 0, []byte("x"))
	sched.Run()
	if net.Stats().DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1", net.Stats().DroppedNoRoute)
	}
	assertStatsIdentity(t, net)
}

func TestHandlerUnregisteredAtDeliveryCountsNoRoute(t *testing.T) {
	sched, net, _, got := twoSiteWorld(t, NoLoss{})
	net.Send(1, 2, 0, []byte("x"))
	// The destination detaches while the packet is in flight.
	sched.After(5*time.Millisecond, func() { net.nodes[2].handler = nil })
	sched.Run()
	if len(*got) != 0 {
		t.Fatalf("delivered to an unregistered handler: %v", *got)
	}
	st := net.Stats()
	if st.DroppedNoRoute != 1 {
		t.Fatalf("DroppedNoRoute = %d, want 1 (stats %+v)", st.DroppedNoRoute, st)
	}
	assertStatsIdentity(t, net)
}

func TestStatsIdentityAcrossOutcomes(t *testing.T) {
	// Mix every drop class with deliveries and check Sent is conserved.
	sched, net, fid, _ := twoSiteWorld(t, Bernoulli{P: 0.3})
	for i := 0; i < 500; i++ {
		net.Send(1, 2, 0, []byte("x")) // loss or delivered
	}
	net.Send(1, 99, 0, []byte("x")) // no route (unknown node)
	net.CutFiber(fid)
	net.Send(1, 2, 0, []byte("x")) // down (cut, pre-convergence)
	sched.RunFor(time.Minute)
	net.Send(1, 2, 0, []byte("x")) // no route (post-convergence)
	sched.Run()
	st := net.Stats()
	if st.Sent != 503 {
		t.Fatalf("Sent = %d, want 503", st.Sent)
	}
	if st.Delivered == 0 || st.DroppedLoss == 0 || st.DroppedDown != 1 || st.DroppedNoRoute != 2 {
		t.Fatalf("outcome mix missing a class: %+v", st)
	}
	assertStatsIdentity(t, net)
}

func TestRouteCacheCountersAndInvalidation(t *testing.T) {
	sched, net, fid, got := twoSiteWorld(t, NoLoss{})
	net.Send(1, 2, 0, []byte("a"))
	net.Send(1, 2, 0, []byte("b"))
	sched.Run()
	// Laying the fiber was the first invalidation.
	if rc := net.RouteCacheStats(); rc != (RouteCacheStats{Hits: 1, Misses: 1, Invalidations: 1}) {
		t.Fatalf("after two sends: %+v, want 1 hit, 1 miss, 1 invalidation", rc)
	}
	// A cut fires a convergence event; once applied the epoch moves and
	// the next send recomputes.
	net.CutFiber(fid)
	sched.RunFor(time.Minute)
	if inv := net.RouteCacheStats().Invalidations; inv != 2 {
		t.Fatalf("convergence event left %d invalidations, want 2", inv)
	}
	net.Send(1, 2, 0, []byte("c"))
	sched.Run()
	if rc := net.RouteCacheStats(); rc != (RouteCacheStats{Hits: 1, Misses: 2, Invalidations: 2}) {
		t.Fatalf("post-invalidation send did not recompute: %+v", rc)
	}
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2", len(*got))
	}
	assertStatsIdentity(t, net)
}

func TestRouteCacheStatsHitRatio(t *testing.T) {
	if got := (RouteCacheStats{Hits: 9, Misses: 1}).HitRatio(); got != 0.9 {
		t.Fatalf("HitRatio = %v, want 0.9", got)
	}
	if got := (RouteCacheStats{}).HitRatio(); got != 0 {
		t.Fatalf("HitRatio before the first lookup = %v, want 0", got)
	}
}

func TestRouteCacheFlapFasterThanConvergence(t *testing.T) {
	// A fiber that flaps down and back up before its convergence delay
	// expires must leave routing (and the cache) believing the fiber is up
	// the whole time, and traffic after the flap settles must flow.
	sched, net, fid, got := twoSiteWorld(t, NoLoss{})
	net.Send(1, 2, 0, []byte("before"))
	sched.Run()
	net.CutFiber(fid)
	sched.RunFor(time.Second) // well under the 40 s convergence delay
	net.RestoreFiber(fid)
	sched.RunFor(2 * time.Minute) // both convergence events fire
	if lat, ok := net.PathLatency(1, 2, 0); !ok || lat != 10*time.Millisecond {
		t.Fatalf("post-flap PathLatency = %v,%v, want 10ms", lat, ok)
	}
	net.Send(1, 2, 0, []byte("after"))
	sched.Run()
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2 (flap must settle up)", len(*got))
	}
	assertStatsIdentity(t, net)
}

// squareWorld wires four sites into a square: A-B and C-D inside the
// halves {A,B} and {C,D}, with A-C and B-D crossing between them. Nodes
// 1..4 sit on A..D.
func squareWorld(t *testing.T) (*sim.Scheduler, *Network, map[string]FiberID, *[]string) {
	t.Helper()
	sched := sim.NewScheduler(23)
	net := New(sched, Config{ConvergenceDelay: time.Second, RestoreDelay: time.Second})
	a := net.AddSite("A")
	b := net.AddSite("B")
	c := net.AddSite("C")
	d := net.AddSite("D")
	isp := net.AddISP("isp1")
	fibers := make(map[string]FiberID)
	add := func(name string, x, y SiteID) {
		fid, err := net.AddFiber(isp, x, y, 10*time.Millisecond, 0, NoLoss{})
		if err != nil {
			t.Fatalf("AddFiber %s: %v", name, err)
		}
		fibers[name] = fid
	}
	add("ab", a, b)
	add("cd", c, d)
	add("ac", a, c)
	add("bd", b, d)
	var got []string
	for id, site := range map[wire.NodeID]SiteID{1: a, 2: b, 3: c, 4: d} {
		if err := net.AttachNode(id, site, func(from wire.NodeID, data []byte) {
			got = append(got, string(data))
		}); err != nil {
			t.Fatalf("AttachNode %d: %v", id, err)
		}
	}
	return sched, net, fibers, &got
}

func TestPartitionCutsExactlyCrossingFibers(t *testing.T) {
	sched, net, fibers, got := squareWorld(t)
	// Pre-cut one crossing fiber: Partition must not report it again.
	net.CutFiber(fibers["ac"])
	cut := net.Partition([]SiteID{0, 1}) // {A, B} vs {C, D}
	if len(cut) != 1 || cut[0] != fibers["bd"] {
		t.Fatalf("Partition cut %v, want only bd=%v", cut, fibers["bd"])
	}
	for _, name := range []string{"ab", "cd"} {
		if net.FiberCut(fibers[name]) {
			t.Fatalf("Partition cut intra-group fiber %s", name)
		}
	}
	sched.RunFor(5 * time.Second) // let convergence apply
	net.Send(1, 3, 0, []byte("cross"))
	net.Send(1, 2, 0, []byte("intra"))
	sched.RunFor(time.Second)
	if len(*got) != 1 || (*got)[0] != "intra" {
		t.Fatalf("during partition got %v, want [intra]", *got)
	}
	// Heal only what Partition cut; ac stays down (cut independently).
	net.Heal(cut)
	sched.RunFor(5 * time.Second)
	if net.FiberCut(fibers["bd"]) {
		t.Fatal("Heal left bd cut")
	}
	if !net.FiberCut(fibers["ac"]) {
		t.Fatal("Heal restored ac, which Partition did not cut")
	}
	net.Send(1, 3, 0, []byte("healed"))
	sched.RunFor(time.Second)
	if len(*got) != 2 || (*got)[1] != "healed" {
		t.Fatalf("after heal got %v, want [... healed]", *got)
	}
	assertStatsIdentity(t, net)
}

func TestSetFiberLatencyReroutesAndInvalidatesCache(t *testing.T) {
	sched, net, fibers, got := squareWorld(t)
	sched.Run()
	// Warm the route cache on the direct A-C path.
	if lat, ok := net.PathLatency(1, 3, 0); !ok || lat != 10*time.Millisecond {
		t.Fatalf("initial PathLatency = %v,%v, want 10ms", lat, ok)
	}
	// Spike the direct fiber: the A-B-D-C detour (30ms) now wins.
	if !net.SetFiberLatency(fibers["ac"], 100*time.Millisecond, time.Millisecond) {
		t.Fatal("SetFiberLatency rejected a valid fiber")
	}
	if lat, jit, ok := net.FiberLatency(fibers["ac"]); !ok || lat != 100*time.Millisecond || jit != time.Millisecond {
		t.Fatalf("FiberLatency = %v,%v,%v, want 100ms,1ms,true", lat, jit, ok)
	}
	if lat, ok := net.PathLatency(1, 3, 0); !ok || lat != 30*time.Millisecond {
		t.Fatalf("post-spike PathLatency = %v,%v, want 30ms detour", lat, ok)
	}
	var deliveredAt time.Duration
	net.nodes[3].handler = func(from wire.NodeID, data []byte) {
		deliveredAt = sched.Now()
		*got = append(*got, string(data))
	}
	start := sched.Now()
	net.Send(1, 3, 0, []byte("detour"))
	sched.Run()
	if len(*got) != 1 || deliveredAt-start != 30*time.Millisecond {
		t.Fatalf("got %v at +%v, want [detour] at +30ms", *got, deliveredAt-start)
	}
	// Restoring the latency must also take effect (epoch bump both ways).
	if !net.SetFiberLatency(fibers["ac"], 10*time.Millisecond, 0) {
		t.Fatal("SetFiberLatency restore rejected")
	}
	if lat, ok := net.PathLatency(1, 3, 0); !ok || lat != 10*time.Millisecond {
		t.Fatalf("restored PathLatency = %v,%v, want 10ms", lat, ok)
	}
	assertStatsIdentity(t, net)
}

func TestSetFiberLatencyRejectsInvalid(t *testing.T) {
	_, net, fibers, _ := squareWorld(t)
	if net.SetFiberLatency(FiberID(len(net.fibers)), time.Millisecond, 0) {
		t.Fatal("accepted out-of-range fiber id")
	}
	if net.SetFiberLatency(-1, time.Millisecond, 0) {
		t.Fatal("accepted negative fiber id")
	}
	if net.SetFiberLatency(fibers["ab"], -time.Millisecond, 0) {
		t.Fatal("accepted negative latency")
	}
	if net.SetFiberLatency(fibers["ab"], time.Millisecond, -time.Second) {
		t.Fatal("accepted negative jitter")
	}
	if _, _, ok := net.FiberLatency(-1); ok {
		t.Fatal("FiberLatency resolved a negative id")
	}
}
