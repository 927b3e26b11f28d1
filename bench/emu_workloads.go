package main

import (
	"math/rand/v2"
	"sort"
	"time"

	"sonet"
)

// Continental node IDs: the 14-node US-scale overlay of the paper's
// Fig. 1 as EXPERIMENTS.md uses it (3–18 ms links, ~40 ms coast to coast).
const (
	nyc sonet.NodeID = iota + 1
	phi
	dc
	atl
	mia
	chi
	den
	dal
	lax
	sfo
	sea
	slc
	pit
	msp
)

// linkJitter is the per-packet uniform delay added on every emulated
// link. Real paths jitter; it also keeps virtual-time latencies from
// collapsing onto a handful of exact link-latency sums.
const linkJitter = 200 * time.Microsecond

// continentalLinks returns the designed topology with the bursty
// Gilbert–Elliott channel of EXP-F4 (~3 % average loss in ~12-packet
// bursts) on every link.
func continentalLinks() []sonet.Link {
	ms := time.Millisecond
	spec := []struct {
		a, b sonet.NodeID
		lat  time.Duration
	}{
		{nyc, phi, 3 * ms}, {nyc, chi, 10 * ms}, {nyc, dc, 9 * ms},
		{phi, dc, 3 * ms}, {phi, pit, 4 * ms},
		{dc, atl, 9 * ms}, {dc, chi, 9 * ms}, {dc, dal, 16 * ms},
		{atl, mia, 9 * ms}, {atl, dal, 10 * ms},
		{chi, den, 12 * ms}, {chi, msp, 5 * ms},
		{pit, msp, 9 * ms}, {msp, sea, 18 * ms},
		{den, slc, 6 * ms}, {den, dal, 9 * ms}, {den, lax, 12 * ms},
		{dal, lax, 12 * ms},
		{slc, sfo, 9 * ms}, {slc, sea, 11 * ms},
		{sfo, lax, 5 * ms}, {sfo, sea, 10 * ms},
	}
	links := make([]sonet.Link, 0, len(spec))
	for _, s := range spec {
		links = append(links, sonet.Link{
			A: s.a, B: s.b, Latency: s.lat, Jitter: linkJitter,
			BurstLoss: &sonet.BurstLoss{PGoodBad: 0.003, PBadGood: 0.08, LossGood: 0.0005, LossBad: 0.85},
		})
	}
	return links
}

const videoDeadline = 200 * time.Millisecond

// emuMixedLoss is the paper's service mix on one continent: live video
// on NM-Strikes, monitoring on the hop-by-hop reliable link, control
// messages on intrusion-tolerant priority flooding over two disjoint
// paths, and one multicast video group.
var emuMixedLoss = emuSpec{
	links: continentalLinks,
	// Five missed hellos, not the default three, before a link is declared
	// down: under this loss three in a row happen about once per run on
	// some link, and a run with one reroute in it is not the same workload
	// as a run with none. Rerouting is emu-churn-64's subject.
	opts:  []sonet.Option{sonet.WithHelloMiss(5)},
	limit: videoDeadline,
	flows: func() []emuFlowSpec {
		var fs []emuFlowSpec
		video := sonet.FlowSpec{Service: sonet.RealTime, Ordered: true, Deadline: videoDeadline}
		for _, p := range [][2]sonet.NodeID{{nyc, lax}, {nyc, sfo}, {dc, sea}, {mia, sea}, {sfo, atl}, {lax, pit}} {
			fs = append(fs, emuFlowSpec{class: "video", src: p[0], dst: []sonet.NodeID{p[1]}, size: 1200, perSecond: 400, flow: video})
		}
		for i, p := range [][2]sonet.NodeID{{sea, nyc}, {lax, dc}, {mia, chi}, {dal, pit}} {
			// Two hop-by-hop reliable flows and two completely reliable
			// (ordered, end-to-end recovered) ones. Only the latter
			// promise delivery: a hop-by-hop flow loses what was queued
			// on a link that lost three hellos in a row and went down.
			fs = append(fs, emuFlowSpec{class: "monitor", src: p[0], dst: []sonet.NodeID{p[1]}, size: 200, perSecond: 100,
				flow: sonet.FlowSpec{Service: sonet.Reliable, Ordered: i >= 2}, mustArrive: i >= 2})
		}
		for _, p := range [][2]sonet.NodeID{{nyc, lax}, {sfo, dc}} {
			fs = append(fs, emuFlowSpec{class: "control", src: p[0], dst: []sonet.NodeID{p[1]}, size: 100, perSecond: 50,
				flow: sonet.FlowSpec{Service: sonet.ITPriority, DisjointPaths: 2, Priority: 5}})
		}
		fs = append(fs, emuFlowSpec{class: "mcast", src: chi, dst: []sonet.NodeID{mia, sea, lax}, group: 7, size: 1200, perSecond: 200,
			flow: sonet.FlowSpec{Service: sonet.RealTime, Deadline: videoDeadline}})
		return fs
	}(),
	warmup: 10 * time.Second,
	// One world's timed phase stops at 60 virtual seconds: the NM-Strikes
	// receive window stalls for good behind its first unrecovered loss,
	// and a link that has carried 2^16 more real-time packets then drops
	// them all (onset 117–162 virtual seconds into a world over seven
	// seeds at these rates; see README.md, "Anomalies").
	virtualPerSecond: 12,
	maxRound:         60 * time.Second,
}

func runEmuMixed(cfg RunConfig) (*Result, error) { return runEmu(cfg, emuMixedLoss, emuHooks{}) }

// Churn world: 64 nodes on a ring with a chord every eighth node.
// Nodes ≡ 1 (mod 4) are flow endpoints and are never faulted; nodes
// ≡ 3 (mod 4) host the multicast source, its three static receivers and
// the clients that join and leave the group on script; the 32 even nodes
// are pure transit and take the node failures and graceful leaves.
const (
	churnNodes = 64
	churnGroup = sonet.GroupID(9)
	// churnEventsPerSecond counts faults and their repairs together.
	churnEventsPerSecond = 5
)

func churnLinks() []sonet.Link {
	var links []sonet.Link
	wrap := func(i int) sonet.NodeID { return sonet.NodeID((i-1)%churnNodes + 1) }
	for i := 1; i <= churnNodes; i++ {
		links = append(links,
			sonet.Link{A: wrap(i), B: wrap(i + 1), Latency: 5 * time.Millisecond, Jitter: linkJitter},
			sonet.Link{A: wrap(i), B: wrap(i + 8), Latency: 12 * time.Millisecond, Jitter: linkJitter})
	}
	return links
}

var emuChurn64 = func() emuSpec {
	spec := emuSpec{
		links:        churnLinks,
		opts:         []sonet.Option{sonet.WithMembership()},
		limit:        500 * time.Millisecond,
		dynamicGroup: churnGroup,
		faults:       churnFaults,
		warmup:       8 * time.Second,
		// Light traffic, heavy control plane: a virtual second costs
		// about twice the wall time of one of emu-mixed-loss.
		virtualPerSecond: 8,
	}
	probe := sonet.FlowSpec{Service: sonet.Reliable}
	for k := 0; k < 16; k++ {
		src := sonet.NodeID(4*k + 1)
		dst := sonet.NodeID(4*((k+8)%16) + 1)
		spec.flows = append(spec.flows, emuFlowSpec{class: "probe", src: src, dst: []sonet.NodeID{dst}, size: 200, perSecond: 100, flow: probe})
	}
	spec.flows = append(spec.flows, emuFlowSpec{class: "mcast", src: 3, dst: []sonet.NodeID{19, 35, 51}, group: churnGroup, size: 200, perSecond: 100, flow: probe})
	spec.joiners = churnJoiners()
	return spec
}()

// churnJoiners lists the nodes whose clients join and leave the group.
func churnJoiners() []sonet.NodeID {
	var js []sonet.NodeID
	for n := sonet.NodeID(7); n <= churnNodes; n += 4 {
		if n != 19 && n != 35 && n != 51 {
			js = append(js, n)
		}
	}
	return js
}

func runEmuChurn(cfg RunConfig) (*Result, error) { return runEmu(cfg, emuChurn64, emuHooks{}) }

// churnFaults expands the seed into fault/repair pairs at
// churnEventsPerSecond. The four kinds take turns — a link cut and its
// restore, a transit node's data-centre failure and recovery, a transit
// node's graceful leave and rejoin, a client joining and leaving the
// multicast group — so every seed scripts the same number of each and
// only where and exactly when they strike differs: a node restart costs
// many times a group join, and a script drawn freely would make each
// seed a different workload. A resource under one fault takes no second
// one until it is repaired, and no two transit nodes that share a
// neighbour are down together, so an endpoint always keeps a live
// neighbour and a missed deadline measures rerouting.
func churnFaults(rng *rand.Rand, span time.Duration) []fault {
	links := churnLinks()
	joiners := churnJoiners()
	busyLink := make(map[int]time.Duration)
	busyNode := make(map[sonet.NodeID]time.Duration)
	busyJoin := make(map[sonet.NodeID]time.Duration)
	// pick probes upward from a random start for the first free candidate.
	pick := func(n int, free func(i int) bool) (int, bool) {
		start := rng.IntN(n)
		for k := 0; k < n; k++ {
			if i := (start + k) % n; free(i) {
				return i, true
			}
		}
		return 0, false
	}
	gap := 2 * time.Second / churnEventsPerSecond // one fault and one repair per gap
	var script []fault
	for turn, slot := 0, gap; slot+3*time.Second < span; turn, slot = turn+1, slot+gap {
		at := slot + time.Duration(rng.Int64N(int64(gap/2)))
		hold := 1500*time.Millisecond + time.Duration(rng.Int64N(int64(time.Second)))
		switch turn % 4 {
		case 0:
			i, ok := pick(len(links), func(i int) bool { return busyLink[i] <= at })
			if !ok {
				continue
			}
			busyLink[i] = at + hold + time.Second
			l := links[i]
			script = append(script,
				fault{at, "cut-link", func(w *emuWorld) error { return w.net.CutLink(l.A, l.B) }},
				fault{at + hold, "restore-link", func(w *emuWorld) error { return w.net.RestoreLink(l.A, l.B) }})
		case 1, 3:
			i, ok := pick(churnNodes/2, func(i int) bool {
				// The transit nodes two steps round the ring share an odd
				// neighbour with n.
				n := sonet.NodeID(2 * (i + 1))
				prev, next := (n+churnNodes-3)%churnNodes+1, (n+1)%churnNodes+1
				return busyNode[n] <= at && busyNode[prev] <= at && busyNode[next] <= at
			})
			if !ok {
				continue
			}
			n := sonet.NodeID(2 * (i + 1))
			busyNode[n] = at + hold + 2*time.Second
			if turn%4 == 1 {
				script = append(script,
					fault{at, "fail-node", func(w *emuWorld) error { w.net.FailNode(n); return nil }},
					fault{at + hold, "restore-node", func(w *emuWorld) error { w.net.RestoreNode(n); return nil }})
			} else {
				// The odd ring neighbour is never faulted: a live contact.
				script = append(script,
					fault{at, "leave-node", func(w *emuWorld) error { return w.net.LeaveNode(n) }},
					fault{at + hold, "rejoin-node", func(w *emuWorld) error { return w.net.RejoinNode(n, n-1) }})
			}
		case 2:
			i, ok := pick(len(joiners), func(i int) bool { return busyJoin[joiners[i]] <= at })
			if !ok {
				continue
			}
			j := joiners[i]
			busyJoin[j] = at + hold + time.Second
			script = append(script,
				fault{at, "join-group", func(w *emuWorld) error { w.clients[j].Join(churnGroup); return nil }},
				fault{at + hold, "leave-group", func(w *emuWorld) error { w.clients[j].Leave(churnGroup); return nil }})
		}
	}
	sort.SliceStable(script, func(i, j int) bool { return script[i].at < script[j].at })
	return script
}
