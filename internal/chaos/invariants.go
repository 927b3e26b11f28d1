package chaos

import (
	"sonet/internal/membership"
	"sonet/internal/metrics"
	"sonet/internal/session"
	"sonet/internal/wire"
)

// Invariant names, as they appear in violations and traces.
const (
	InvConservation  = "conservation"
	InvConvergence   = "convergence"
	InvGroups        = "group-agreement"
	InvLoopFree      = "loop-free"
	InvReachable     = "reachability"
	InvStream        = "session-loss"
	InvHealth        = "health-counters"
	InvSched         = "sched-accounting"
	InvStabilization = "stabilization-bound"
)

// scheduleConservationTicks arms the continuous packet-accounting check:
// at every tick during the fault window and convergence phase, the
// underlay must never have resolved more packet fates than it accepted
// sends. (Equality only holds with nothing in flight; the final teardown
// check demands it.)
func (e *engine) scheduleConservationTicks() {
	deadline := e.base + e.camp.Duration + convergeBound
	var tick func()
	tick = func() {
		e.checkConservationProgress()
		if e.w.O.Now() < deadline {
			e.w.O.Sched.After(tickInterval, tick)
		}
	}
	e.w.O.Sched.After(tickInterval, tick)
}

func (e *engine) checkConservationProgress() {
	e.stats.InvariantChecks++
	st := e.w.O.Net.Stats()
	resolved := st.Delivered + st.DroppedLoss + st.DroppedDown + st.DroppedNoRoute
	if st.Sent < resolved {
		e.violate(InvConservation, "underlay resolved %d fates for %d sends", resolved, st.Sent)
	}
}

// checkConservationFinal runs after teardown drained the world: every
// sent packet must have met exactly one fate.
func (e *engine) checkConservationFinal() {
	e.stats.InvariantChecks++
	st := e.w.O.Net.Stats()
	resolved := st.Delivered + st.DroppedLoss + st.DroppedDown + st.DroppedNoRoute
	if st.Sent != resolved {
		e.violate(InvConservation,
			"after drain: sent=%d delivered=%d loss=%d down=%d noroute=%d (in flight %d)",
			st.Sent, st.Delivered, st.DroppedLoss, st.DroppedDown, st.DroppedNoRoute,
			int64(st.Sent)-int64(resolved))
	} else {
		e.tracef("invariant %s ok: %d packets, every fate accounted", InvConservation, st.Sent)
	}
	// No campaign corrupts bytes in flight, so nothing a node received may
	// have failed to decode.
	for _, id := range e.w.Nodes {
		if n := e.w.O.Node(id).Stats().DroppedMalformed; n > 0 {
			e.violate(InvConservation, "node %v dropped %d malformed frames or control payloads", id, n)
		}
	}
}

// checkConvergence runs at the post-repair quiesce point: every fault has
// been healed and the convergence bound has elapsed, so every node —
// survivors and reborn crash victims alike — must see every overlay link
// up. A stale entry means detection, flooding, or refresh repair missed
// the bound.
func (e *engine) checkConvergence() {
	e.stats.InvariantChecks++
	bad := 0
	for _, id := range e.w.Nodes {
		view := e.w.O.Node(id).View()
		for li, lid := range e.w.Links {
			if !view.State[lid].Up {
				bad++
				e.violate(InvConvergence, "node %v still sees link %d down %v after all repairs", id, li, convergeBound)
			}
		}
	}
	if bad == 0 {
		e.tracef("invariant %s ok: %d nodes agree all %d links up", InvConvergence, len(e.w.Nodes), len(e.w.Links))
	}
}

// checkGroups runs at the quiesce point: every node's replicated group
// state must agree on the designed membership.
func (e *engine) checkGroups() {
	e.stats.InvariantChecks++
	want := map[wire.NodeID]bool{
		e.w.Nodes[mcastMemberLo]: true,
		e.w.Nodes[mcastMemberHi]: true,
	}
	bad := 0
	for _, id := range e.w.Nodes {
		members := e.w.O.Node(id).Groups().Members(chaosGroup)
		ok := len(members) == len(want)
		for _, m := range members {
			if !want[m] {
				ok = false
			}
		}
		if !ok {
			bad++
			e.violate(InvGroups, "node %v sees group %d members %v, want %v nodes", id, chaosGroup, members, len(want))
		}
	}
	if bad == 0 {
		e.tracef("invariant %s ok: %d nodes agree on group %d", InvGroups, len(e.w.Nodes), chaosGroup)
	}
}

// checkHealth asserts the link-state health counters actually observed
// the adversity: any campaign that severed topology (cuts, partitions,
// ISP outages, crashes) must have driven at least one reconvergence
// somewhere. Silent counters mean the instrumentation — or the detection
// machinery it watches — is broken.
func (e *engine) checkHealth() {
	if !e.severed {
		return
	}
	e.stats.InvariantChecks++
	var reconv, missed, downs, deltas uint64
	for _, id := range e.w.Nodes {
		st := e.w.O.Node(id).LinkStateManager().Stats()
		reconv += st.Reconvergences
		missed += st.HellosMissed
		deltas += st.DeltaLSAsSent + st.DeltaLSAsForwarded
		downs += st.DownDetections
	}
	if reconv == 0 {
		e.violate(InvHealth, "topology faults applied but no node recorded a reconvergence (missed hellos: %d)", missed)
	} else {
		e.tracef("invariant %s ok: %d reconvergences, %d missed hellos", InvHealth, reconv, missed)
	}
	// Every down declaration floods a single-link delta advertisement in
	// the same breath, and both counters live and die with the same node
	// incarnation — so surviving down-detections with zero delta floods
	// fleet-wide mean the delta origination path is broken.
	if downs > 0 && deltas == 0 {
		e.violate(InvHealth, "%d down detections but no delta LSA flood recorded anywhere", downs)
	} else if downs > 0 {
		e.tracef("invariant %s ok: %d down detections, %d delta LSA floods", InvHealth, downs, deltas)
	}
}

// checkStabilization runs at the post-repair quiesce point in membership
// worlds. The engine's convergence bound doubles as the documented
// stabilization bound: whatever churn and state corruption the campaign
// injected — leaves, rejoins with stale seeded directories, planted
// departure records, stale view entries — by now the fleet must have
// self-stabilized to a legal fixed point. Concretely: every replica
// holds the full membership with an identical digest, and a synchronous
// detector pass on every node flags nothing. Detector/corrector round
// counts go to the trace, so stabilization activity is part of the
// replay hash.
func (e *engine) checkStabilization() {
	if !e.w.Topo.Membership {
		return
	}
	e.stats.InvariantChecks++
	bad := 0
	var refDigest uint64
	var sweeps, incons, corrections uint64
	for i, id := range e.w.Nodes {
		m := e.w.O.Node(id).Membership()
		if m == nil {
			bad++
			e.violate(InvStabilization, "node %v runs no membership manager in a membership world", id)
			continue
		}
		st := m.Stats()
		sweeps += st.DetectorSweeps
		incons += st.Inconsistencies
		corrections += st.Corrections
		d := m.Directory()
		if got := d.NumMembers(); got != len(e.w.Nodes) {
			bad++
			e.violate(InvStabilization, "node %v directory has %d members, want %d, %v after all repairs",
				id, got, len(e.w.Nodes), convergeBound)
		}
		if i == 0 {
			refDigest = d.Digest()
		} else if d.Digest() != refDigest {
			bad++
			e.violate(InvStabilization, "node %v directory digest %016x diverges from node %v's %016x",
				id, d.Digest(), e.w.Nodes[0], refDigest)
		}
		if fs := membership.Detect(e.w.O.Node(id).View(), d, nil); len(fs) > 0 {
			bad++
			e.violate(InvStabilization, "node %v detector still flags %d inconsistencies: first %v %v",
				id, len(fs), fs[0].Kind, fs[0].Link)
		}
	}
	if bad == 0 {
		e.tracef("invariant %s ok: %d replicas agree on %d members within %v; sweeps=%d inconsistencies=%d corrections=%d",
			InvStabilization, len(e.w.Nodes), len(e.w.Nodes), convergeBound, sweeps, incons, corrections)
	}
}

// runProbes checks loop freedom and reachability on the converged world:
// a probe from node[0] to every other node must arrive, and no packet may
// exhaust its TTL — on a converged loop-free view, TTL death can only
// mean a forwarding loop.
func (e *engine) runProbes() {
	e.stats.InvariantChecks++
	ttlBefore := e.ttlDrops()
	before := make([]int, len(e.probeGot))
	copy(before, e.probeGot)
	src := e.w.O.Session(e.w.Nodes[streamSrcIndex])
	probeSrc, err := src.Connect(0)
	if err != nil {
		e.violate("engine", "probe source: %v", err)
		return
	}
	for ni := 1; ni < len(e.w.Nodes); ni++ {
		fl, err := probeSrc.OpenFlow(session.FlowSpec{
			DstNode:   e.w.Nodes[ni],
			DstPort:   probePort,
			LinkProto: wire.LPReliable,
		})
		if err != nil {
			e.violate("engine", "probe flow to %d: %v", ni, err)
			continue
		}
		if err := fl.Send([]byte("probe")); err != nil {
			e.violate("engine", "probe send to %d: %v", ni, err)
		}
	}
	e.w.O.RunFor(probeTime)
	unreached := 0
	for ni := 1; ni < len(e.w.Nodes); ni++ {
		if e.probeGot[ni] <= before[ni] {
			unreached++
			e.violate(InvReachable, "probe to node %v not delivered within %v on converged world", e.w.Nodes[ni], probeTime)
		}
	}
	if delta := e.ttlDrops() - ttlBefore; delta > 0 {
		e.violate(InvLoopFree, "%d packets exhausted TTL on a converged loop-free view", delta)
	} else if unreached == 0 {
		e.tracef("invariant %s+%s ok: %d probes delivered, no TTL deaths", InvReachable, InvLoopFree, len(e.w.Nodes)-1)
	}
}

func (e *engine) ttlDrops() uint64 {
	var total uint64
	for _, id := range e.w.Nodes {
		total += e.w.O.Node(id).Stats().DroppedTTL
	}
	return total
}

// checkStream runs after the drain: the reliable ordered stream must have
// delivered every accepted send exactly once, in order. Ordering and
// duplication are monitored continuously at delivery time; completeness
// is only checkable here, once end-to-end recovery has had the whole
// drain to finish.
func (e *engine) checkStream() {
	e.stats.InvariantChecks++
	if e.streamGot != e.streamSent {
		e.violate(InvStream, "stream delivered %d of %d sends after %v drain", e.streamGot, e.streamSent, drainTime)
	} else {
		e.tracef("invariant %s ok: %d/%d stream packets in order", InvStream, e.streamGot, e.streamSent)
	}
}

// checkMulticast summarizes the continuously-enforced no-duplicate
// invariant; best-effort multicast may lose packets under faults, so
// completeness is reported, not required.
func (e *engine) checkMulticast() {
	e.stats.InvariantChecks++
	for ni := mcastMemberLo; ni <= mcastMemberHi; ni++ {
		if e.mcastSeen[ni] == nil {
			continue
		}
		e.tracef("multicast member %d: %d/%d unique deliveries", ni, len(e.mcastSeen[ni]), e.mcastSent)
	}
}

// checkSched runs at the post-drain point: every node's fair-scheduler
// accounting must balance — packets accepted into a scheduler equal
// packets transmitted plus packets dropped (evicted or closed) plus
// packets still queued. With the drain complete nothing should remain
// queued, so an imbalance means the scheduler lost or invented a packet
// somewhere under the fault script. Crash-restarted nodes report their
// live incarnation's counters; each incarnation's identity must hold on
// its own.
func (e *engine) checkSched() {
	e.stats.InvariantChecks++
	var agg metrics.SchedSnapshot
	bad := 0
	for _, id := range e.w.Nodes {
		st := e.w.O.Node(id).SchedStats()
		if !st.Balanced() {
			bad++
			e.violate(InvSched,
				"node %v scheduler unbalanced: enqueued %d != transmitted %d + evicted %d + closed %d + queued %d",
				id, st.Enqueued, st.Transmitted, st.DropEvicted, st.DropClosed, st.Queued)
		}
		agg = agg.Merge(st)
	}
	// The fleet aggregate must balance too: per-node ledgers could each
	// balance while a merge bug (shard ledgers double-counted or dropped
	// in aggregation) skewed the whole, so the summed identity is its own
	// invariant.
	if !agg.Balanced() {
		e.violate(InvSched,
			"fleet scheduler ledger unbalanced: enqueued %d != transmitted %d + evicted %d + closed %d + queued %d",
			agg.Enqueued, agg.Transmitted, agg.DropEvicted, agg.DropClosed, agg.Queued)
		return
	}
	if bad == 0 {
		e.tracef("invariant %s ok: %d it sends, fleet %d enqueued = %d transmitted + %d dropped + %d queued",
			InvSched, e.itSent, agg.Enqueued, agg.Transmitted, agg.DropEvicted+agg.DropClosed, agg.Queued)
	}
}
