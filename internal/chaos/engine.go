package chaos

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"time"

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

	// Fault bookkeeping. held lists every applied, unrepaired fault in
	// the order applied; a target's depth is how many entries name it.
	// fiberCuts reference-counts severed fibers across cut-link,
	// partition, and isp-outage events so overlapping faults compose: a
	// repair only resurrects a fiber no other outstanding fault still
	// claims. severed records that a fault which takes topology down
	// fired, for checkHealth.
	held      []held
	fiberCuts map[netemu.FiberID]int
	severed   bool

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
		w:          w,
		camp:       c,
		events:     events,
		fiberCuts:  make(map[netemu.FiberID]int),
		streamNext: 1,
		mcastSeen:  make([]map[uint32]bool, len(w.Nodes)),
		probeGot:   make([]int, len(w.Nodes)),
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

// held is one applied fault not yet repaired.
type held struct {
	f  *fault
	ev Event
}

// apply executes one scheduled event against the world.
func (e *engine) apply(ev Event) {
	f, repair := faultOf(ev.Kind)
	switch {
	case repair && e.repair(f, ev):
		e.stats.FaultsActive--
	case !repair && f.inject(e, ev, e.find(f.kind, ev) < 0):
		// Corruption has no repair event and holds no capacity down; the
		// stabilization sweeps repair it, so it never counts as active.
		if f.repair != "" {
			e.held = append(e.held, held{f, ev})
			e.stats.FaultsActive++
		}
		e.severed = e.severed || f.severs
	default:
		e.tracef("skip %s", ev)
		return
	}
	e.stats.EventsInjected++
	e.tracef("apply %s", ev)
}

// repair undoes the first outstanding fault of f's kind on ev's target,
// and reports false when none is outstanding.
func (e *engine) repair(f *fault, ev Event) bool {
	i := e.find(f.kind, ev)
	if i < 0 {
		return false
	}
	e.held = slices.Delete(e.held, i, i+1)
	f.undo(e, ev, e.find(f.kind, ev) < 0)
	return true
}

// find returns the index in held of the first outstanding fault of kind
// k on ev's target, or -1.
func (e *engine) find(k Kind, ev Event) int {
	return slices.IndexFunc(e.held, func(h held) bool {
		return h.f.kind == k && h.f.space.same(h.ev, ev)
	})
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

// restoreAll repairs every outstanding fault at the end of the fault
// window (a minimized script's repairs may have been truncated away), so
// the post-repair convergence bound always starts from a fully repaired
// world. It goes in each kind's restore order (fault.restore): link cuts
// by link index, partitions in the order applied, each ISP's outage then
// its brownout, latency spikes by link index, crashed nodes by node
// index, and departed nodes by node index last.
func (e *engine) restoreAll() {
	order := slices.Clone(e.held)
	slices.SortStableFunc(order, func(a, b held) int {
		return cmp.Or(cmp.Compare(a.f.restore[0], b.f.restore[0]),
			cmp.Compare(a.f.space.index(a.ev), b.f.space.index(b.ev)),
			cmp.Compare(a.f.restore[1], b.f.restore[1]))
	})
	for _, h := range order {
		e.repair(h.f, h.ev)
		e.stats.FaultsActive--
		if !h.f.restoreOnce || e.find(h.f.kind, h.ev) < 0 {
			e.tracef("restore-all "+h.f.restoreTrace, h.f.space.target(h.ev))
		}
	}
}

// ---- traffic ----

// setupTraffic connects the campaign's workload: one reliable ordered
// stream, one intrusion-tolerant priority stream, one best-effort
// multicast group, and a probe client per node. Delivery callbacks double
// as continuous invariant monitors.
func (e *engine) setupTraffic() {
	dst := e.w.Nodes[streamDstIndex]
	e.streamFlow = e.openFlow("stream", streamSrcPort, session.FlowSpec{
		DstNode: dst, DstPort: streamDstPort, LinkProto: wire.LPReliable, Ordered: true,
	}, []int{streamDstIndex}, func(_ int, c *session.Client) {
		c.OnDeliver(func(d session.Delivery) {
			e.streamGot++
			if d.Seq != e.streamNext {
				e.violate("session-order", "stream delivered seq %d, want %d", d.Seq, e.streamNext)
				e.streamNext = d.Seq
			}
			e.streamNext++
		})
	})
	if e.streamFlow == nil {
		return
	}
	// A light intrusion-tolerant priority stream exercises the fair
	// scheduler's drop/backpressure accounting under faults; the sched
	// invariant cross-checks it against packet conservation at drain.
	e.itFlow = e.openFlow("it stream", itSrcPort, session.FlowSpec{
		DstNode: dst, DstPort: itDstPort, LinkProto: wire.LPITPriority,
	}, []int{streamDstIndex}, func(_ int, c *session.Client) {
		c.OnDeliver(func(session.Delivery) { e.itGot++ })
	})
	if e.itFlow == nil {
		return
	}
	e.mcastFlow = e.openFlow("multicast", mcastSrcPort, session.FlowSpec{
		Group: chaosGroup, DstPort: mcastPort,
	}, []int{mcastMemberLo, mcastMemberHi}, func(ni int, c *session.Client) {
		c.Join(chaosGroup)
		e.mcastSeen[ni] = make(map[uint32]bool)
		c.OnDeliver(func(d session.Delivery) {
			if e.mcastSeen[ni][d.Seq] {
				e.violate("multicast-dup", "member %d saw seq %d twice", ni, d.Seq)
			}
			e.mcastSeen[ni][d.Seq] = true
		})
	})
	if e.mcastFlow == nil {
		return
	}
	for ni := range e.w.Nodes {
		e.connectProbe(ni)
	}
}

// openFlow connects a flow's source client on the stream source node and
// a sink client on spec.DstPort at each sink node index, in that order,
// lets attach set up each sink, and opens the flow. It records an error
// as a violation and returns nil.
func (e *engine) openFlow(name string, srcPort wire.Port, spec session.FlowSpec, sinks []int, attach func(ni int, c *session.Client)) *session.Flow {
	src, err := e.w.O.Session(e.w.Nodes[streamSrcIndex]).Connect(srcPort)
	if err != nil {
		e.violate("engine", "%s source: %v", name, err)
		return nil
	}
	for _, ni := range sinks {
		c, err := e.w.O.Session(e.w.Nodes[ni]).Connect(spec.DstPort)
		if err != nil {
			if spec.Group != 0 {
				e.violate("engine", "%s member %d: %v", name, ni, err)
			} else {
				e.violate("engine", "%s destination: %v", name, err)
			}
			return nil
		}
		attach(ni, c)
	}
	fl, err := src.OpenFlow(spec)
	if err != nil {
		e.violate("engine", "%s flow: %v", name, err)
	}
	return fl
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

// scheduleTraffic paces each flow's sends across the fault window:
// stream, then multicast, then the intrusion-tolerant stream.
func (e *engine) scheduleTraffic() {
	e.sendEvery(streamInterval, e.streamFlow, "stream", &e.streamSent)
	e.sendEvery(mcastInterval, e.mcastFlow, "mcast", &e.mcastSent)
	e.sendEvery(itInterval, e.itFlow, "fairshed", &e.itSent)
}

// sendEvery schedules one send of payload on fl per interval, counting
// the sends the flow accepts in *sent.
func (e *engine) sendEvery(interval time.Duration, fl *session.Flow, payload string, sent *int) {
	for k := 0; k < int(e.camp.Duration/interval); k++ {
		e.w.O.Sched.At(e.base+time.Duration(k)*interval, func() {
			if fl != nil && fl.Send([]byte(payload)) == nil {
				(*sent)++
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
