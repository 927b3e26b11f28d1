package chaos

import (
	"fmt"
	"math/rand/v2"
	"time"

	"sonet/internal/membership"
	"sonet/internal/netemu"
	"sonet/internal/wire"
)

// Kind names one fault or repair primitive. Faults come in pairs: every
// fault kind but corrupt-view has a matching repair kind, and the engine
// counts overlapping faults on the same target so a repair never
// resurrects capacity another outstanding fault still holds down.
type Kind string

const (
	// KindCutLink severs both fibers of one overlay link (Arg = link
	// index). Short cut/restore pairs are "flaps" — faster than hello
	// convergence when the window is under HelloInterval × HelloMiss.
	KindCutLink Kind = "cut-link"
	// KindRestoreLink repairs a prior cut of the same link.
	KindRestoreLink Kind = "restore-link"
	// KindCrashNode crash-stops a node with total state loss (Arg = node
	// index): its site drops off the underlay and its session manager,
	// link-state database, and sequence counters die with it.
	KindCrashNode Kind = "crash-node"
	// KindRestartNode boots a fresh incarnation of a crashed node.
	KindRestartNode Kind = "restart-node"
	// KindPartition cuts every fiber crossing a node bipartition (Mask
	// bit i = world node index i in group A).
	KindPartition Kind = "partition"
	// KindHeal repairs a prior partition with the same mask.
	KindHeal Kind = "heal"
	// KindISPOutage severs every fiber of one provider backbone (Arg =
	// ISP index 0 or 1): the correlated failure multihoming exists to
	// survive.
	KindISPOutage Kind = "isp-outage"
	// KindISPRestore repairs a prior ISP outage.
	KindISPRestore Kind = "isp-restore"
	// KindBrownout imposes extra Bernoulli loss on one provider (Arg =
	// ISP index, Val = loss in permille): a burst-loss storm rather than
	// a clean cut.
	KindBrownout Kind = "brownout"
	// KindBrownoutEnd lifts a prior brownout.
	KindBrownoutEnd Kind = "brownout-end"
	// KindLatencySpike multiplies one link's primary-fiber latency (Arg =
	// link index, Val = factor ×10) and adds jitter.
	KindLatencySpike Kind = "latency-spike"
	// KindLatencyNormal restores a spiked link's designed latency.
	KindLatencyNormal Kind = "latency-normal"
	// KindLeaveNode departs a node gracefully (Arg = node index): it
	// floods its departure record (in membership worlds), withdraws its
	// link-state advertisements, and stops.
	KindLeaveNode Kind = "leave-node"
	// KindRejoinNode rejoins a departed node as a fresh incarnation: it
	// restarts with its deliberately stale seeded directory and — in
	// membership worlds — re-runs admission through the lowest-index
	// alive contact, healing the stale state by anti-entropy.
	KindRejoinNode Kind = "rejoin-node"
	// KindCorruptView corrupts one node's control-plane state in place
	// (Arg = node index, Val selects the flavor): a bogus departure
	// record planted in its member directory, or a live link marked down
	// in its topology view. There is no repair event — the
	// self-stabilizing detector/corrector sweeps must converge the fleet
	// back, within the stabilization bound, on their own.
	KindCorruptView Kind = "corrupt-view"
)

// fault is the one definition of a fault kind: its repair, the targets it
// may name, how a generator draws it, and how the engine applies and
// undoes it. Validate, Expand, the engine and checkHealth all read it.
type fault struct {
	kind Kind
	// repair is the kind that undoes this one; corrupt-view has none, its
	// repair is the protocol's own stabilization sweeps.
	repair Kind
	space  space
	// hold is a generator fault's hold range [min, max).
	hold [2]time.Duration
	// val is a generator fault's Val draw, val[0] + IntN(val[1]); none
	// when val[1] is zero.
	val [2]int
	// busy names the resource generator faults of this kind serialize on,
	// per target index, so paired repairs never interleave on it.
	busy string
	// severs marks the kinds that take topology down, after which
	// checkHealth expects a reconvergence somewhere.
	severs bool
	// restoreAll repairs by restore[0], then target index, then
	// restore[1], and traces restoreTrace, formatted with the target, for
	// each repair — for a restoreOnce kind only for the target's last.
	restore      [2]int
	restoreTrace string
	restoreOnce  bool
	// inject applies one fault, told whether its target had none
	// outstanding; false refuses it. undo repairs one, told whether it
	// was the target's last.
	inject func(e *engine, ev Event, first bool) bool
	undo   func(e *engine, ev Event, last bool)
}

// faults defines every fault kind, in FaultKinds order.
var faults = []fault{
	{kind: KindCutLink, repair: KindRestoreLink, space: linkSpace, busy: "link",
		// Flaps start at 50 ms — well under the ~300 ms hello-miss
		// detection window, so campaigns exercise faults faster than
		// convergence.
		hold: [2]time.Duration{50 * time.Millisecond, 2500 * time.Millisecond}, severs: true,
		restore: [2]int{0, 0}, restoreTrace: "link=%d",
		inject: cutting(linkFibers), undo: releasing(linkFibers),
	},
	{kind: KindCrashNode, repair: KindRestartNode, space: nodeSpace, busy: "node",
		// Crashes hold at least 600 ms so down detection, reroute, and
		// LSA withdrawal all fire before the reborn incarnation appears.
		hold: [2]time.Duration{600 * time.Millisecond, 2 * time.Second}, severs: true,
		restore: [2]int{4, 0}, restoreTrace: "node=%d", restoreOnce: true,
		inject: (*engine).crashNode, undo: (*engine).restartNode,
	},
	{kind: KindLeaveNode, repair: KindRejoinNode, space: nodeSpace, busy: "node",
		hold: [2]time.Duration{600 * time.Millisecond, 2 * time.Second},
		// Departed nodes rejoin last, once every crashed contact
		// candidate is back, so admission has a live contact to go
		// through.
		restore: [2]int{5, 0}, restoreTrace: "rejoin node=%d", restoreOnce: true,
		inject: (*engine).leaveNode, undo: (*engine).rejoinNode,
	},
	{kind: KindPartition, repair: KindHeal, space: maskSpace, busy: "partition",
		hold: [2]time.Duration{500 * time.Millisecond, 2500 * time.Millisecond}, severs: true,
		restore: [2]int{1, 0}, restoreTrace: "partition mask=%s",
		inject: cutting(crossingFibers), undo: releasing(crossingFibers),
	},
	{kind: KindISPOutage, repair: KindISPRestore, space: ispSpace, busy: "isp",
		hold: [2]time.Duration{500 * time.Millisecond, 2500 * time.Millisecond}, severs: true,
		restore: [2]int{2, 0}, restoreTrace: "isp=%d",
		inject: cutting(ispFibers), undo: releasing(ispFibers),
	},
	{kind: KindBrownout, repair: KindBrownoutEnd, space: ispSpace, busy: "isp-loss",
		hold:    [2]time.Duration{500 * time.Millisecond, 3 * time.Second},
		val:     [2]int{50, 251}, // 5% .. 30% loss
		restore: [2]int{2, 1}, restoreTrace: "brownout isp=%d",
		inject: (*engine).brownout, undo: (*engine).brownoutEnd,
	},
	{kind: KindLatencySpike, repair: KindLatencyNormal, space: linkSpace, busy: "link",
		hold:    [2]time.Duration{200 * time.Millisecond, 2 * time.Second},
		val:     [2]int{20, 21}, // ×2.0 .. ×4.0
		restore: [2]int{3, 0}, restoreTrace: "latency link=%d",
		inject: (*engine).latencySpike, undo: (*engine).latencyNormal,
	},
	{kind: KindCorruptView, space: nodeSpace, busy: "node",
		// The hold only spaces repeated corruptions of the same victim
		// while its sweeps are still stabilizing.
		hold:   [2]time.Duration{500 * time.Millisecond, 1500 * time.Millisecond},
		val:    [2]int{0, 2},
		inject: (*engine).corruptView,
	},
}

// faultOf returns the row defining k and whether k is that row's repair
// kind rather than its fault kind; nil when k names no event.
func faultOf(k Kind) (*fault, bool) {
	for i := range faults {
		f := &faults[i]
		if k == f.kind {
			return f, false
		}
		if k == f.repair && k != "" {
			return f, true
		}
	}
	return nil, false
}

// FaultKinds lists every fault kind usable in a GeneratorSpec, in stable
// order.
func FaultKinds() []Kind {
	kinds := make([]Kind, len(faults))
	for i, f := range faults {
		kinds[i] = f.kind
	}
	return kinds
}

// space is the set a fault's target lies in: Validate checks an event
// against it and a generator draws from it.
type space uint8

const (
	linkSpace space = iota // Arg is an overlay link index
	nodeSpace              // Arg is a world node index
	ispSpace               // Arg is a provider index, 0 or 1
	maskSpace              // Mask is a partition's group A
)

// size is how many targets a link, node or ISP space holds on topology t.
func (s space) size(t Topology) int {
	switch s {
	case linkSpace:
		return len(t.Pairs)
	case nodeSpace:
		return t.N
	}
	return 2
}

// check rejects an event whose target is outside the space on topology t.
func (s space) check(ev Event, t Topology) error {
	if s == maskSpace && (ev.Mask.Empty() || ev.Mask.MaxBit() >= t.N) {
		return fmt.Errorf("chaos: event %v: partition mask empty or out of range", ev)
	}
	if s != maskSpace && (ev.Arg < 0 || ev.Arg >= s.size(t)) {
		return fmt.Errorf("chaos: event %v: %s index out of range", ev, [...]string{"link", "node", "ISP"}[s])
	}
	return nil
}

// draw picks a generator fault's target, or reports that t offers none.
func (s space) draw(ev *Event, t Topology, rng *rand.Rand) bool {
	switch s {
	case nodeSpace:
		// Traffic endpoints are exempt: crashing or departing one loses
		// client state, and corrupting its view can administratively
		// sever its links for a sweep or two, which the no-loss
		// invariant would misread.
		if t.N <= protectedNodes {
			return false
		}
		ev.Arg = protectedNodes + rng.IntN(t.N-protectedNodes)
	case maskSpace:
		// A random nonempty proper subset of nodes forms group A.
		size := 1 + rng.IntN(t.N-1)
		for _, idx := range rng.Perm(t.N)[:size] {
			ev.Mask = ev.Mask.With(idx)
		}
	default:
		ev.Arg = rng.IntN(s.size(t))
	}
	return true
}

// same reports whether two events name the same target.
func (s space) same(a, b Event) bool {
	if s == maskSpace {
		return a.Mask.Equal(b.Mask)
	}
	return a.Arg == b.Arg
}

// index orders targets for restoreAll; masks have none, so partitions
// keep the order they were applied in.
func (s space) index(ev Event) int {
	if s == maskSpace {
		return 0
	}
	return ev.Arg
}

// target is what a trace line names.
func (s space) target(ev Event) any {
	if s == maskSpace {
		return ev.Mask
	}
	return ev.Arg
}

// ---- appliers ----

// cutting and releasing apply and undo a fault that holds fibers down;
// the engine reference-counts each fiber across faults.
func cutting(fibers func(*engine, Event) []netemu.FiberID) func(*engine, Event, bool) bool {
	return func(e *engine, ev Event, _ bool) bool {
		for _, f := range fibers(e, ev) {
			e.cutFiber(f)
		}
		return true
	}
}

func releasing(fibers func(*engine, Event) []netemu.FiberID) func(*engine, Event, bool) {
	return func(e *engine, ev Event, _ bool) {
		for _, f := range fibers(e, ev) {
			e.releaseFiber(f)
		}
	}
}

func linkFibers(e *engine, ev Event) []netemu.FiberID {
	f := e.w.Fibers[e.w.Links[ev.Arg]]
	return f[:]
}

// crossingFibers lists the fibers of every link crossing a bipartition.
func crossingFibers(e *engine, ev Event) []netemu.FiberID {
	var out []netemu.FiberID
	for li, pair := range e.w.Topo.Pairs {
		if ev.Mask.Bit(pair[0]-1) != ev.Mask.Bit(pair[1]-1) {
			f := e.w.Fibers[e.w.Links[li]]
			out = append(out, f[:]...)
		}
	}
	return out
}

// ispFibers lists one provider's fiber of every link.
func ispFibers(e *engine, ev Event) []netemu.FiberID {
	out := make([]netemu.FiberID, len(e.w.Links))
	for i, lid := range e.w.Links {
		out[i] = e.w.Fibers[lid][ev.Arg]
	}
	return out
}

func (e *engine) crashNode(ev Event, first bool) bool {
	if first {
		id := e.w.Nodes[ev.Arg]
		e.w.O.Net.SetSiteUp(e.w.Sites[id], false)
		e.w.O.Node(id).Stop()
		e.w.O.Session(id).Close()
	}
	return true
}

func (e *engine) restartNode(ev Event, last bool) {
	if last {
		e.w.O.Net.SetSiteUp(e.w.Sites[e.w.Nodes[ev.Arg]], true)
		e.reboot(ev.Arg, "restart")
	}
}

// reboot boots a fresh incarnation of a stopped node, which redeploys
// its probe service; stream and multicast clients are deliberately NOT
// recreated — losing one is real state loss the invariants must see.
func (e *engine) reboot(ni int, what string) bool {
	id := e.w.Nodes[ni]
	if err := e.w.O.RestartNode(id); err != nil {
		e.violate("engine", "%s node %v: %v", what, id, err)
		return false
	}
	tuneSessions(e.w.O.Session(id))
	e.connectProbe(ni)
	return true
}

// leaveNode departs a node gracefully: departure record flooded (in
// membership worlds), LSAs withdrawn, sessions closed, node stopped. A
// crashed node cannot announce a leave.
func (e *engine) leaveNode(ev Event, first bool) bool {
	if e.find(KindCrashNode, ev) >= 0 {
		return false
	}
	if first {
		id := e.w.Nodes[ev.Arg]
		if err := e.w.O.Leave(id); err != nil {
			e.violate("engine", "leave node %v: %v", id, err)
		}
	}
	return true
}

// rejoinNode brings a departed node back as a fresh incarnation and — in
// membership worlds — re-runs admission through the lowest-index alive
// contact. Its seeded directory is deliberately stale (everyone joined
// at epoch 1); anti-entropy heals it.
func (e *engine) rejoinNode(ev Event, last bool) {
	if !last || !e.reboot(ev.Arg, "rejoin") {
		return
	}
	if m := e.w.O.Node(e.w.Nodes[ev.Arg]).Membership(); m != nil {
		if contact := e.aliveContact(ev.Arg); contact != 0 {
			m.Join(contact)
		}
	}
}

// nodeDown reports whether a node is crashed or departed.
func (e *engine) nodeDown(ni int) bool {
	ev := Event{Arg: ni}
	return e.find(KindCrashNode, ev) >= 0 || e.find(KindLeaveNode, ev) >= 0
}

// aliveContact returns the lowest-index node that is neither crashed nor
// departed (excluding ni), or zero when none is.
func (e *engine) aliveContact(ni int) wire.NodeID {
	for j := range e.w.Nodes {
		if j != ni && !e.nodeDown(j) {
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
func (e *engine) corruptView(ev Event, _ bool) bool {
	ni := ev.Arg
	if e.nodeDown(ni) {
		return false
	}
	id := e.w.Nodes[ni]
	n := e.w.O.Node(id)
	if ev.Val%2 == 0 {
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

// brownout re-applies its loss on every apply, so the latest overlapping
// brownout of a provider sets the rate; the loss lifts with the last.
func (e *engine) brownout(ev Event, _ bool) bool {
	e.w.O.Net.SetISPExtraLoss(e.w.ISPs[ev.Arg], float64(ev.Val)/1000)
	return true
}

func (e *engine) brownoutEnd(ev Event, last bool) {
	if last {
		e.w.O.Net.SetISPExtraLoss(e.w.ISPs[ev.Arg], 0)
	}
}

func (e *engine) latencySpike(ev Event, first bool) bool {
	if first {
		lid := e.w.Links[ev.Arg]
		lat := e.w.Lat[lid] * time.Duration(ev.Val) / 10
		e.w.O.Net.SetFiberLatency(e.w.Fibers[lid][0], lat, lat/8)
	}
	return true
}

func (e *engine) latencyNormal(ev Event, last bool) {
	if last {
		lid := e.w.Links[ev.Arg]
		e.w.O.Net.SetFiberLatency(e.w.Fibers[lid][0], e.w.Lat[lid], 0)
	}
}
