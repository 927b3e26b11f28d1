package chaos

import (
	"fmt"
	"hash/fnv"
	"time"

	"sonet/internal/membership"
	"sonet/internal/netemu"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// Campaign phase timing. The convergence bound is the engine's promise:
// once all faults are repaired, every surviving and reborn node must
// reconverge within it. It is derived from the chaos world's knobs —
// underlay restore (400 ms) + down-probe rediscovery (250 ms) + hello
// confirmation (100 ms × (3+1)) + one LSA refresh cycle (1 s) + one group
// refresh cycle (500 ms) — plus flood propagation slack.
const (
	settleTime     = time.Second
	streamInterval = 25 * time.Millisecond
	mcastInterval  = 100 * time.Millisecond
	itInterval     = 50 * time.Millisecond
	tickInterval   = 500 * time.Millisecond
	convergeBound  = 3500 * time.Millisecond
	probeTime      = time.Second
	drainTime      = 10 * time.Second
	// defaultDuration is the fault window when a campaign leaves it zero.
	defaultDuration = 6 * time.Second
)

// Traffic addressing: the stream runs node[0]→node[1], the multicast
// group spans nodes[1..2], and every node hosts a probe client.
const (
	streamSrcPort  = wire.Port(50)
	streamDstPort  = wire.Port(100)
	mcastSrcPort   = wire.Port(51)
	mcastPort      = wire.Port(200)
	itSrcPort      = wire.Port(52)
	itDstPort      = wire.Port(300)
	probePort      = wire.Port(9)
	chaosGroup     = wire.GroupID(7)
	mcastMemberLo  = 1
	mcastMemberHi  = 2
	streamSrcIndex = 0
	streamDstIndex = 1
)

// TraceEntry is one line of a campaign's deterministic event trace, at a
// campaign-relative virtual time.
type TraceEntry struct {
	At   time.Duration `json:"at"`
	What string        `json:"what"`
}

// Violation is one invariant failure observed during a campaign.
type Violation struct {
	At        time.Duration `json:"at"`
	Invariant string        `json:"invariant"`
	Detail    string        `json:"detail"`
}

// Report is the outcome of one campaign run.
type Report struct {
	Campaign Campaign
	// Events is the concrete expanded script the engine executed —
	// sufficient, with the seed, to replay the run bit-for-bit.
	Events []Event
	// Trace is the deterministic record of applied events and invariant
	// verdicts.
	Trace []TraceEntry
	// TraceHash is the FNV-1a hash of Trace; identical (scenario, seed)
	// runs must produce identical hashes.
	TraceHash uint64
	// Violations lists every invariant failure, in time order.
	Violations []Violation
	// Stats summarizes engine activity.
	Stats Stats
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Stats counts fault-campaign activity in one engine run: injected
// adversity on one side, invariant outcomes on the other. The engine is
// single-threaded, and the counters are read once the run is over.
type Stats struct {
	// EventsInjected counts fault and repair events applied to the world.
	EventsInjected uint64
	// FaultsActive tracks the number of currently outstanding faults
	// (injected and not yet healed/restored).
	FaultsActive int64
	// InvariantChecks counts individual invariant evaluations, continuous
	// and at quiesce points.
	InvariantChecks uint64
	// Violations counts invariant evaluations that failed.
	Violations uint64
	// Campaigns counts completed campaign runs.
	Campaigns uint64
}

// Clean reports whether every invariant evaluation so far passed (and at
// least one ran).
func (s Stats) Clean() bool {
	return s.InvariantChecks > 0 && s.Violations == 0
}

// engine executes one campaign against one world.
type engine struct {
	w      *World
	camp   Campaign
	events []Event
	base   time.Duration
	stats  Stats

	trace []TraceEntry
	viol  []Violation

	// Fault bookkeeping. fiberCuts reference-counts severed fibers
	// across cut-link, partition, and isp-outage events so overlapping
	// faults compose: a repair only resurrects a fiber no other
	// outstanding fault still claims.
	fiberCuts  map[netemu.FiberID]int
	linkCut    []int
	crashDepth []int
	leaveDepth []int
	ispOut     [2]int
	brownDepth [2]int
	spikeDepth []int
	partitions []NodeMask
	// appliedKinds records which fault kinds actually fired, for
	// fault-sensitive invariants.
	appliedKinds map[Kind]bool

	// Traffic state.
	streamFlow *session.Flow
	mcastFlow  *session.Flow
	itFlow     *session.Flow
	streamSent int
	mcastSent  int
	itSent     int
	itGot      int
	streamNext uint32
	streamGot  int
	mcastSeen  []map[uint32]bool
	probeGot   []int
}

// Run executes a campaign: build the world, expand generators, inject
// the script, and check invariants continuously, at the post-repair
// quiesce point, and after the final drain.
func Run(c Campaign) (*Report, error) {
	if c.Duration == 0 {
		c.Duration = defaultDuration
	}
	t, ok := TopologyByName(c.Topo)
	if !ok {
		return nil, fmt.Errorf("chaos: unknown topology %q (have %v)", c.Topo, TopologyNames())
	}
	events, err := Expand(c, t)
	if err != nil {
		return nil, err
	}
	w, err := BuildWorld(t, c.Seed)
	if err != nil {
		return nil, err
	}
	if err := w.Start(); err != nil {
		return nil, err
	}
	e := &engine{
		w:            w,
		camp:         c,
		events:       events,
		fiberCuts:    make(map[netemu.FiberID]int),
		linkCut:      make([]int, len(w.Links)),
		crashDepth:   make([]int, len(w.Nodes)),
		leaveDepth:   make([]int, len(w.Nodes)),
		spikeDepth:   make([]int, len(w.Links)),
		appliedKinds: make(map[Kind]bool),
		streamNext:   1,
		mcastSeen:    make([]map[uint32]bool, len(w.Nodes)),
		probeGot:     make([]int, len(w.Nodes)),
	}
	e.run()
	return e.report(), nil
}

func (e *engine) run() {
	o := e.w.O
	o.RunFor(settleTime)
	e.setupTraffic()
	e.base = o.Now()
	e.tracef("campaign start topo=%s seed=%d duration=%v events=%d",
		e.camp.Topo, e.camp.Seed, e.camp.Duration, len(e.events))
	for _, ev := range e.events {
		ev := ev
		o.Sched.At(e.base+ev.At, func() { e.apply(ev) })
	}
	e.scheduleTraffic()
	e.scheduleConservationTicks()
	o.RunFor(e.camp.Duration)
	e.restoreAll()
	o.RunFor(convergeBound)
	e.checkConvergence()
	e.checkGroups()
	e.checkHealth()
	e.checkStabilization()
	e.runProbes()
	o.RunFor(drainTime)
	e.checkStream()
	e.checkMulticast()
	e.checkSched()
	e.teardown()
	e.stats.Campaigns++
	e.tracef("campaign end violations=%d", len(e.viol))
}

func (e *engine) report() *Report {
	h := fnv.New64a()
	for _, te := range e.trace {
		fmt.Fprintf(h, "%d|%s\n", int64(te.At), te.What)
	}
	return &Report{
		Campaign:   e.camp,
		Events:     e.events,
		Trace:      e.trace,
		TraceHash:  h.Sum64(),
		Violations: e.viol,
		Stats:      e.stats,
	}
}

// rel converts absolute virtual time to campaign-relative time.
func (e *engine) rel() time.Duration { return e.w.O.Now() - e.base }

func (e *engine) tracef(format string, args ...any) {
	e.trace = append(e.trace, TraceEntry{At: e.rel(), What: fmt.Sprintf(format, args...)})
}

// violate records an invariant failure in both the violation list and the
// trace.
func (e *engine) violate(invariant, format string, args ...any) {
	v := Violation{At: e.rel(), Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
	e.viol = append(e.viol, v)
	e.stats.Violations++
	e.tracef("VIOLATION %s: %s", v.Invariant, v.Detail)
}

// ---- fault application ----

// apply executes one scheduled event against the world.
func (e *engine) apply(ev Event) {
	applied := false
	switch ev.Kind {
	case KindCutLink:
		applied = e.cutLink(ev.Arg)
	case KindRestoreLink:
		applied = e.restoreLink(ev.Arg)
	case KindCrashNode:
		applied = e.crashNode(ev.Arg)
	case KindRestartNode:
		applied = e.restartNode(ev.Arg)
	case KindPartition:
		applied = e.partition(ev.Mask)
	case KindHeal:
		applied = e.heal(ev.Mask)
	case KindISPOutage:
		applied = e.ispOutage(ev.Arg)
	case KindISPRestore:
		applied = e.ispRestore(ev.Arg)
	case KindBrownout:
		applied = e.brownout(ev.Arg, ev.Val)
	case KindBrownoutEnd:
		applied = e.brownoutEnd(ev.Arg)
	case KindLatencySpike:
		applied = e.latencySpike(ev.Arg, ev.Val)
	case KindLatencyNormal:
		applied = e.latencyNormal(ev.Arg)
	case KindLeaveNode:
		applied = e.leaveNode(ev.Arg)
	case KindRejoinNode:
		applied = e.rejoinNode(ev.Arg)
	case KindCorruptView:
		applied = e.corruptView(ev.Arg, ev.Val)
	}
	if !applied {
		e.tracef("skip %s", ev)
		return
	}
	e.stats.EventsInjected++
	switch {
	case ev.Kind == KindCorruptView:
		// Corruption has no repair event and holds no capacity down; the
		// stabilization sweeps repair it, so it never counts as active.
		e.appliedKinds[ev.Kind] = true
	case isFault(ev.Kind):
		e.appliedKinds[ev.Kind] = true
		e.stats.FaultsActive++
	default:
		e.stats.FaultsActive--
	}
	e.tracef("apply %s", ev)
}

// cutFiber / releaseFiber reference-count underlay cuts.
func (e *engine) cutFiber(f netemu.FiberID) {
	e.fiberCuts[f]++
	if e.fiberCuts[f] == 1 {
		e.w.O.Net.CutFiber(f)
	}
}

func (e *engine) releaseFiber(f netemu.FiberID) {
	if e.fiberCuts[f] == 0 {
		return
	}
	e.fiberCuts[f]--
	if e.fiberCuts[f] == 0 {
		e.w.O.Net.RestoreFiber(f)
	}
}

func (e *engine) cutLink(li int) bool {
	e.linkCut[li]++
	for _, f := range e.w.Fibers[e.w.Links[li]] {
		e.cutFiber(f)
	}
	return true
}

func (e *engine) restoreLink(li int) bool {
	if e.linkCut[li] == 0 {
		return false
	}
	e.linkCut[li]--
	for _, f := range e.w.Fibers[e.w.Links[li]] {
		e.releaseFiber(f)
	}
	return true
}

func (e *engine) crashNode(ni int) bool {
	e.crashDepth[ni]++
	if e.crashDepth[ni] > 1 {
		return true
	}
	id := e.w.Nodes[ni]
	e.w.O.Net.SetSiteUp(e.w.Sites[id], false)
	e.w.O.Node(id).Stop()
	e.w.O.Session(id).Close()
	return true
}

func (e *engine) restartNode(ni int) bool {
	if e.crashDepth[ni] == 0 {
		return false
	}
	e.crashDepth[ni]--
	if e.crashDepth[ni] > 0 {
		return true
	}
	id := e.w.Nodes[ni]
	e.w.O.Net.SetSiteUp(e.w.Sites[id], true)
	if err := e.w.O.RestartNode(id); err != nil {
		e.violate("engine", "restart node %v: %v", id, err)
		return true
	}
	tuneSessions(e.w.O.Session(id))
	// The reborn node redeploys its probe service; stream and multicast
	// clients are deliberately NOT recreated — losing one is real state
	// loss the invariants must see.
	e.connectProbe(ni)
	return true
}

// leaveNode departs a node gracefully: departure record flooded (in
// membership worlds), LSAs withdrawn, sessions closed, node stopped. A
// crashed node cannot announce a leave.
func (e *engine) leaveNode(ni int) bool {
	if e.crashDepth[ni] > 0 {
		return false
	}
	e.leaveDepth[ni]++
	if e.leaveDepth[ni] > 1 {
		return true
	}
	id := e.w.Nodes[ni]
	if err := e.w.O.Leave(id); err != nil {
		e.violate("engine", "leave node %v: %v", id, err)
	}
	return true
}

// rejoinNode brings a departed node back as a fresh incarnation and — in
// membership worlds — re-runs admission through the lowest-index alive
// contact. Its seeded directory is deliberately stale (everyone joined
// at epoch 1); anti-entropy heals it.
func (e *engine) rejoinNode(ni int) bool {
	if e.leaveDepth[ni] == 0 {
		return false
	}
	e.leaveDepth[ni]--
	if e.leaveDepth[ni] > 0 {
		return true
	}
	id := e.w.Nodes[ni]
	if err := e.w.O.RestartNode(id); err != nil {
		e.violate("engine", "rejoin node %v: %v", id, err)
		return true
	}
	tuneSessions(e.w.O.Session(id))
	e.connectProbe(ni)
	if m := e.w.O.Node(id).Membership(); m != nil {
		if contact := e.aliveContact(ni); contact != 0 {
			m.Join(contact)
		}
	}
	return true
}

// aliveContact returns the lowest-index node that is neither crashed nor
// departed (excluding ni), or zero when none is.
func (e *engine) aliveContact(ni int) wire.NodeID {
	for j := range e.w.Nodes {
		if j != ni && e.crashDepth[j] == 0 && e.leaveDepth[j] == 0 {
			return e.w.Nodes[j]
		}
	}
	return 0
}

// corruptView corrupts one running node's control-plane state in place.
// Flavor 0 plants a bogus departure record for another live member in
// the victim's directory — it supersedes the real record, spreads by
// anti-entropy, and must be beaten back by the target's self-defense
// refutation. Flavor 1 marks the victim's first incident link down in
// its view — a stale entry the owner's refresh flood must repair. Both
// heal without any repair event, bounded by the stabilization invariant.
func (e *engine) corruptView(ni, flavor int) bool {
	if e.crashDepth[ni] > 0 || e.leaveDepth[ni] > 0 {
		return false
	}
	id := e.w.Nodes[ni]
	n := e.w.O.Node(id)
	if flavor%2 == 0 {
		if m := n.Membership(); m != nil {
			target := e.aliveContact(ni)
			if target == 0 {
				return false
			}
			epoch := uint32(1)
			if cur, ok := m.Directory().Get(target); ok {
				epoch = cur.Epoch + 1
			}
			return m.InjectRecord(membership.Record{
				ID: target, Epoch: epoch, Status: membership.StatusLeft,
			})
		}
	}
	for li, pair := range e.w.Topo.Pairs {
		if pair[0] == ni+1 || pair[1] == ni+1 {
			n.LinkStateManager().ApplyCorrection(e.w.Links[li], false)
			return true
		}
	}
	return false
}

// crossingLinks returns the indices of links crossing a node bipartition.
func (e *engine) crossingLinks(mask NodeMask) []int {
	var out []int
	for li, pair := range e.w.Topo.Pairs {
		inA := mask.Bit(pair[0] - 1)
		inB := mask.Bit(pair[1] - 1)
		if inA != inB {
			out = append(out, li)
		}
	}
	return out
}

func (e *engine) partition(mask NodeMask) bool {
	e.partitions = append(e.partitions, mask)
	for _, li := range e.crossingLinks(mask) {
		for _, f := range e.w.Fibers[e.w.Links[li]] {
			e.cutFiber(f)
		}
	}
	return true
}

func (e *engine) heal(mask NodeMask) bool {
	found := -1
	for i, m := range e.partitions {
		if m.Equal(mask) {
			found = i
			break
		}
	}
	if found < 0 {
		return false
	}
	e.partitions = append(e.partitions[:found], e.partitions[found+1:]...)
	for _, li := range e.crossingLinks(mask) {
		for _, f := range e.w.Fibers[e.w.Links[li]] {
			e.releaseFiber(f)
		}
	}
	return true
}

func (e *engine) ispOutage(isp int) bool {
	e.ispOut[isp]++
	for _, lid := range e.w.Links {
		e.cutFiber(e.w.Fibers[lid][isp])
	}
	return true
}

func (e *engine) ispRestore(isp int) bool {
	if e.ispOut[isp] == 0 {
		return false
	}
	e.ispOut[isp]--
	for _, lid := range e.w.Links {
		e.releaseFiber(e.w.Fibers[lid][isp])
	}
	return true
}

func (e *engine) brownout(isp, permille int) bool {
	e.brownDepth[isp]++
	e.w.O.Net.SetISPExtraLoss(e.w.ISPs[isp], float64(permille)/1000)
	return true
}

func (e *engine) brownoutEnd(isp int) bool {
	if e.brownDepth[isp] == 0 {
		return false
	}
	e.brownDepth[isp]--
	if e.brownDepth[isp] == 0 {
		e.w.O.Net.SetISPExtraLoss(e.w.ISPs[isp], 0)
	}
	return true
}

func (e *engine) latencySpike(li, fac10 int) bool {
	e.spikeDepth[li]++
	if e.spikeDepth[li] > 1 {
		return true
	}
	lid := e.w.Links[li]
	lat := e.w.Lat[lid] * time.Duration(fac10) / 10
	e.w.O.Net.SetFiberLatency(e.w.Fibers[lid][0], lat, lat/8)
	return true
}

func (e *engine) latencyNormal(li int) bool {
	if e.spikeDepth[li] == 0 {
		return false
	}
	e.spikeDepth[li]--
	if e.spikeDepth[li] == 0 {
		lid := e.w.Links[li]
		e.w.O.Net.SetFiberLatency(e.w.Fibers[lid][0], e.w.Lat[lid], 0)
	}
	return true
}

// restoreAll repairs every outstanding fault at the end of the fault
// window (a minimized script's repairs may have been truncated away), so
// the post-repair convergence bound always starts from a fully repaired
// world. Iteration is index-ordered for determinism.
func (e *engine) restoreAll() {
	for li := range e.linkCut {
		for e.linkCut[li] > 0 {
			e.restoreLink(li)
			e.stats.FaultsActive--
			e.tracef("restore-all link=%d", li)
		}
	}
	for len(e.partitions) > 0 {
		mask := e.partitions[0]
		e.heal(mask)
		e.stats.FaultsActive--
		e.tracef("restore-all partition mask=%s", mask)
	}
	for isp := 0; isp < 2; isp++ {
		for e.ispOut[isp] > 0 {
			e.ispRestore(isp)
			e.stats.FaultsActive--
			e.tracef("restore-all isp=%d", isp)
		}
		for e.brownDepth[isp] > 0 {
			e.brownoutEnd(isp)
			e.stats.FaultsActive--
			e.tracef("restore-all brownout isp=%d", isp)
		}
	}
	for li := range e.spikeDepth {
		for e.spikeDepth[li] > 0 {
			e.latencyNormal(li)
			e.stats.FaultsActive--
			e.tracef("restore-all latency link=%d", li)
		}
	}
	for ni := range e.crashDepth {
		if e.crashDepth[ni] > 0 {
			depth := e.crashDepth[ni]
			e.crashDepth[ni] = 1
			e.restartNode(ni)
			e.stats.FaultsActive -= int64(depth)
			e.tracef("restore-all node=%d", ni)
		}
	}
	// Departed nodes rejoin last, once every crashed contact candidate is
	// back, so admission has a live contact to go through.
	for ni := range e.leaveDepth {
		if e.leaveDepth[ni] > 0 {
			depth := e.leaveDepth[ni]
			e.leaveDepth[ni] = 1
			e.rejoinNode(ni)
			e.stats.FaultsActive -= int64(depth)
			e.tracef("restore-all rejoin node=%d", ni)
		}
	}
}

// ---- traffic ----

// setupTraffic connects the campaign's workload: one reliable ordered
// stream, one best-effort multicast group, and a probe client per node.
// Delivery callbacks double as continuous invariant monitors.
func (e *engine) setupTraffic() {
	o := e.w.O
	src, err := o.Session(e.w.Nodes[streamSrcIndex]).Connect(streamSrcPort)
	if err != nil {
		e.violate("engine", "stream source: %v", err)
		return
	}
	dst, err := o.Session(e.w.Nodes[streamDstIndex]).Connect(streamDstPort)
	if err != nil {
		e.violate("engine", "stream destination: %v", err)
		return
	}
	dst.OnDeliver(func(d session.Delivery) {
		e.streamGot++
		if d.Seq != e.streamNext {
			e.violate("session-order", "stream delivered seq %d, want %d", d.Seq, e.streamNext)
			e.streamNext = d.Seq
		}
		e.streamNext++
	})
	e.streamFlow, err = src.OpenFlow(session.FlowSpec{
		DstNode:   e.w.Nodes[streamDstIndex],
		DstPort:   streamDstPort,
		LinkProto: wire.LPReliable,
		Ordered:   true,
	})
	if err != nil {
		e.violate("engine", "stream flow: %v", err)
		return
	}
	// A light intrusion-tolerant priority stream exercises the fair
	// scheduler's drop/backpressure accounting under faults; the sched
	// invariant cross-checks it against packet conservation at drain.
	itSrc, err := o.Session(e.w.Nodes[streamSrcIndex]).Connect(itSrcPort)
	if err != nil {
		e.violate("engine", "it stream source: %v", err)
		return
	}
	itDst, err := o.Session(e.w.Nodes[streamDstIndex]).Connect(itDstPort)
	if err != nil {
		e.violate("engine", "it stream destination: %v", err)
		return
	}
	itDst.OnDeliver(func(session.Delivery) { e.itGot++ })
	e.itFlow, err = itSrc.OpenFlow(session.FlowSpec{
		DstNode:   e.w.Nodes[streamDstIndex],
		DstPort:   itDstPort,
		LinkProto: wire.LPITPriority,
	})
	if err != nil {
		e.violate("engine", "it stream flow: %v", err)
		return
	}
	msrc, err := o.Session(e.w.Nodes[streamSrcIndex]).Connect(mcastSrcPort)
	if err != nil {
		e.violate("engine", "multicast source: %v", err)
		return
	}
	for ni := mcastMemberLo; ni <= mcastMemberHi; ni++ {
		ni := ni
		member, err := o.Session(e.w.Nodes[ni]).Connect(mcastPort)
		if err != nil {
			e.violate("engine", "multicast member %d: %v", ni, err)
			return
		}
		member.Join(chaosGroup)
		e.mcastSeen[ni] = make(map[uint32]bool)
		member.OnDeliver(func(d session.Delivery) {
			if e.mcastSeen[ni][d.Seq] {
				e.violate("multicast-dup", "member %d saw seq %d twice", ni, d.Seq)
			}
			e.mcastSeen[ni][d.Seq] = true
		})
	}
	e.mcastFlow, err = msrc.OpenFlow(session.FlowSpec{
		Group:   chaosGroup,
		DstPort: mcastPort,
	})
	if err != nil {
		e.violate("engine", "multicast flow: %v", err)
		return
	}
	for ni := range e.w.Nodes {
		e.connectProbe(ni)
	}
}

// connectProbe (re)connects a node's probe client; restarted nodes call
// it again because the old client died with the crashed incarnation.
func (e *engine) connectProbe(ni int) {
	c, err := e.w.O.Session(e.w.Nodes[ni]).Connect(probePort)
	if err != nil {
		e.violate("engine", "probe client %d: %v", ni, err)
		return
	}
	c.OnDeliver(func(session.Delivery) { e.probeGot[ni]++ })
}

func (e *engine) scheduleTraffic() {
	o := e.w.O
	nStream := int(e.camp.Duration / streamInterval)
	for k := 0; k < nStream; k++ {
		o.Sched.At(e.base+time.Duration(k)*streamInterval, func() {
			if e.streamFlow != nil && e.streamFlow.Send([]byte("stream")) == nil {
				e.streamSent++
			}
		})
	}
	nMcast := int(e.camp.Duration / mcastInterval)
	for k := 0; k < nMcast; k++ {
		o.Sched.At(e.base+time.Duration(k)*mcastInterval, func() {
			if e.mcastFlow != nil && e.mcastFlow.Send([]byte("mcast")) == nil {
				e.mcastSent++
			}
		})
	}
	nIT := int(e.camp.Duration / itInterval)
	for k := 0; k < nIT; k++ {
		o.Sched.At(e.base+time.Duration(k)*itInterval, func() {
			if e.itFlow != nil && e.itFlow.Send([]byte("fairshed")) == nil {
				e.itSent++
			}
		})
	}
}

// teardown closes every session and node, then drains in-flight traffic
// with the simulator's quiesce primitive so the final packet-accounting
// check sees a world with nothing in the air.
func (e *engine) teardown() {
	for _, id := range e.w.Nodes {
		if s := e.w.O.Session(id); s != nil {
			s.Close()
		}
	}
	e.w.O.Stop()
	if !e.w.O.Sched.RunUntilQuiesce(200*time.Millisecond, 5*time.Second) {
		e.tracef("teardown: drain hit deadline")
	}
	e.checkConservationFinal()
}
