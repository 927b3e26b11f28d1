// Package linkstate implements the Connectivity Graph Maintenance
// component of the overlay node software architecture (Fig. 2): hello
// probing of neighbors, failure detection, multihomed path failover,
// measurement of per-link latency and loss, and the link-state
// advertisements that carry them, flooded by the rule in package flood so
// that every overlay node maintains the same global view of the overlay's
// condition (§II-B).
//
// Because a structured overlay has only a few tens of nodes, the full
// global state is small and can be updated in a timely manner, giving the
// overlay its sub-second rerouting (§II-A) in contrast to BGP's tens of
// seconds.
package linkstate

import (
	"fmt"
	"slices"
	"time"

	"sonet/internal/flood"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// EpochMask bounds the link-session epoch carried in hello Seq values:
// the low byte holds the underlay path index, the upper 24 bits the
// sender's epoch. Epochs stay within these 24 bits and compare in serial
// arithmetic modulo 2^24 (epochAhead), so wrap-around is harmless.
const EpochMask = 0xffffff

// Env is what the manager needs from its host overlay node.
type Env interface {
	// Clock returns the node's clock.
	Clock() sim.Clock
	// SendControl transmits a control frame (hello or hello-ack) to a
	// neighbor over the link's current path.
	SendControl(neighbor wire.NodeID, f *wire.Frame)
	// FloodLSA sends a link-state packet to every current neighbor except
	// the one it came from (zero to send to all).
	FloodLSA(payload []byte, except wire.NodeID)
	// SendLSA sends a link-state packet to one neighbor (database resync
	// on link recovery).
	SendLSA(neighbor wire.NodeID, payload []byte)
	// PathCount returns how many distinct underlay paths (ISP choices)
	// exist for the link to a neighbor (§II-A multihoming).
	PathCount(neighbor wire.NodeID) int
	// SetPath switches the link to a neighbor onto underlay path index
	// path.
	SetPath(neighbor wire.NodeID, path uint8)
	// ViewChanged notifies the node that the shared view changed and
	// routes must be recomputed.
	ViewChanged()
}

// Config parameterizes connectivity maintenance.
type Config struct {
	// HelloInterval is the neighbor probe period. Detection latency is
	// roughly HelloInterval × HelloMiss per path, so the defaults detect
	// single-homed link failures in ~300 ms.
	HelloInterval time.Duration
	// HelloMiss is how many consecutive unanswered hellos trigger
	// failover to the next path, or a down declaration when no paths
	// remain.
	HelloMiss int
	// DownProbeInterval is the probe period for links declared down.
	DownProbeInterval time.Duration
	// RefreshInterval is the period of full link-state refloods, which
	// repair any lost advertisements.
	RefreshInterval time.Duration
	// LossWindow is the number of hellos over which loss is estimated.
	LossWindow int
	// LossFailover is the measured one-way loss rate at which a
	// multihomed link re-homes onto its next underlay path (§II-A:
	// "choosing a different combination of ISPs to use for a given
	// overlay link"). Zero disables loss-driven failover; hard outages
	// still fail over via missed hellos.
	LossFailover float64
}

// A measured link's relative latency change, or absolute loss-rate change,
// that triggers an advertisement outside the refresh cycle.
const (
	latencyChangeFrac = 0.25
	lossChangeAbs     = 0.02
)

// DefaultConfig returns production defaults (sub-second detection).
func DefaultConfig() Config {
	return Config{
		HelloInterval:     100 * time.Millisecond,
		HelloMiss:         3,
		DownProbeInterval: time.Second,
		RefreshInterval:   2 * time.Second,
		LossWindow:        50,
		LossFailover:      0.15,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.HelloInterval <= 0 {
		c.HelloInterval = d.HelloInterval
	}
	if c.HelloMiss <= 0 {
		c.HelloMiss = d.HelloMiss
	}
	if c.DownProbeInterval <= 0 {
		c.DownProbeInterval = d.DownProbeInterval
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = d.RefreshInterval
	}
	if c.LossWindow <= 0 {
		c.LossWindow = d.LossWindow
	}
	if c.LossFailover == 0 {
		c.LossFailover = d.LossFailover
	}
	return c
}

// Stats counts connectivity-maintenance activity.
type Stats struct {
	// HellosSent counts hello probes transmitted.
	HellosSent uint64
	// HellosMissed counts hello intervals that elapsed without hearing
	// from a neighbor (each one step toward declaring the link down).
	HellosMissed uint64
	// LSAsSent counts link-state advertisements originated (full and
	// delta).
	LSAsSent uint64
	// DeltaLSAsSent counts the subset of originated advertisements that
	// were single-link deltas.
	DeltaLSAsSent uint64
	// DeltaLSAsForwarded counts the advertisements reflooded for other
	// origins (FloodStats().Flooded) that were single-link deltas.
	DeltaLSAsForwarded uint64
	// Reconvergences counts the view changes the manager announced:
	// every time a local detection, a correction or a received LSA changed
	// this node's view of the shared graph.
	Reconvergences uint64
	// Failovers counts multihoming path switches.
	Failovers uint64
	// DownDetections counts links declared down.
	DownDetections uint64
	// UpDetections counts links declared back up.
	UpDetections uint64
}

// neighborState tracks hello liveness for one adjacent overlay link.
type neighborState struct {
	linkID wire.LinkID
	// owner is true when this node is the link's lower-ID endpoint: the
	// owner is the single source of truth for the link's advertised
	// latency and loss, so every node routes on identical values and
	// equal-cost decisions cannot disagree (divergent per-endpoint
	// measurements caused transient forwarding loops).
	owner   bool
	up      bool
	curPath uint8
	missed  int
	// disabled suspends hello probing entirely: the neighbor has left the
	// overlay (membership), so the link is administratively down rather
	// than failure-detected down, and down-probing would be wasted.
	disabled bool
	// pendingAck marks a hello in flight awaiting its ack.
	pendingAck bool
	// rtt is the smoothed round-trip estimate and loss the last closed
	// window's one-way loss estimate: what this end measures. What it
	// advertised is the link's entry in the view (maybeAdvertise).
	rtt        time.Duration
	helloCount int
	ackCount   int
	loss       float64
	timer      sim.Timer
	// epoch numbers the link's session incarnation: it bumps on every
	// down/up transition, when the host restarts the link's protocol
	// endpoints, and is advertised in hellos so the peer can detect
	// restarts it did not itself observe (an asymmetric loss streak resets
	// only the lossy side; the peer's stale receive windows would
	// otherwise swallow — and acknowledge — the fresh sequences).
	epoch uint32
	// awaitPeer is set after a local restart until the peer confirms the
	// new epoch; a confirming hello restarts the sessions once more, to
	// clear anything the peer's old endpoints sent in the interim.
	awaitPeer bool
}

// Manager is the Connectivity Graph Maintenance component for one node.
// All methods must be called from the node's executor.
type Manager struct {
	env  Env
	self wire.NodeID
	view *topology.View
	cfg  Config

	neighbors wire.NodeTable[*neighborState]
	// order lists neighbors in ascending ID order. Every full advertisement
	// and, through Neighbors, every control flood of the host node walks
	// it, so it stays beside the table: a walk of the table spans the
	// largest neighbor ID, not the node's degree.
	order []wire.NodeID
	// db numbers this node's advertisements, orders everyone else's and
	// retains the latest full one per origin, so a recovering link can be
	// brought up to date at once instead of waiting for every origin's
	// next refresh.
	db *flood.DB
	// rxAdv is the decode target of HandleLSA and ctl the hello or
	// hello-ack being sent: Env.SendControl marshals before it returns.
	rxAdv  Advertisement
	ctl    wire.Frame
	stats  Stats
	closed bool
	// onSessionReset is invoked whenever a neighbor's link sessions must
	// restart, and onNeighborState after an adjacent link is declared down
	// or back up; both do nothing until the host sets them.
	onSessionReset  func(wire.NodeID)
	onNeighborState func(wire.NodeID, bool)
	// started records that Start ran, so neighbors registered afterwards
	// (runtime joins) begin probing immediately.
	started bool

	refreshTimer sim.Timer
}

// NewManager returns a manager for node self sharing view. The view must
// already contain every link a neighbor is registered on with AddNeighbor.
func NewManager(env Env, self wire.NodeID, view *topology.View, cfg Config) *Manager {
	m := &Manager{
		env:             env,
		self:            self,
		view:            view,
		cfg:             cfg.withDefaults(),
		db:              flood.New(self),
		onSessionReset:  func(wire.NodeID) {},
		onNeighborState: func(wire.NodeID, bool) {},
	}
	m.refreshTimer = env.Clock().NewTimer(m.refresh)
	return m
}

// AddNeighbor registers the adjacent link to a neighbor; a neighbor
// already registered is left as it is. On a started manager (a runtime
// join) probing begins at once and the node's full link states — now
// including the new link — are re-announced; before Start, Start does
// both.
func (m *Manager) AddNeighbor(n wire.NodeID, link wire.LinkID) {
	if m.neighbors.At(n) != nil {
		return
	}
	st := m.view.State[link]
	if m.self < n {
		// An owned link's entry is what its first advertisement will say.
		m.setOwned(link, st.Latency, st.Loss)
	}
	m.neighbors.Put(n, &neighborState{
		linkID: link,
		owner:  m.self < n,
		up:     true,
		rtt:    2 * st.Latency,
		timer:  m.env.Clock().NewTimer(func() { m.helloTick(n) }),
	})
	i, _ := slices.BinarySearch(m.order, n)
	m.order = slices.Insert(m.order, i, n)
	if m.started && !m.closed {
		m.scheduleHello(n, m.cfg.HelloInterval)
		m.originateLSA()
	}
}

// Start begins hello probing and periodic refresh flooding, announcing the
// node's initial link states immediately.
func (m *Manager) Start() {
	m.started = true
	for _, n := range m.order {
		m.scheduleHello(n, m.cfg.HelloInterval)
	}
	m.originateLSA()
	m.refreshTimer.Reset(m.cfg.RefreshInterval)
}

// SetMemberCheck installs the overlay-membership gate for advertisement
// acceptance (flood.DB.SetGate).
func (m *Manager) SetMemberCheck(fn func(wire.NodeID) bool) { m.db.SetGate(fn) }

// DisableNeighbor administratively downs the link to a neighbor that left
// the overlay: hello probing stops (no down-probe waste on a gone peer),
// the local view marks the link down, and a withdrawal delta floods so the
// fleet routes around it. A later EnableNeighbor (rejoin) resumes probing.
func (m *Manager) DisableNeighbor(n wire.NodeID) {
	st := m.neighbors.At(n)
	if st == nil || st.disabled {
		return
	}
	st.disabled = true
	st.pendingAck = false
	st.missed = 0
	st.timer.Stop()
	m.declareDown(n, st)
}

// EnableNeighbor resumes hello probing of a previously disabled neighbor
// (a rejoin). The link comes back up through the ordinary ack-recovery
// path, which re-announces it and resyncs the peer's database.
func (m *Manager) EnableNeighbor(n wire.NodeID) {
	st := m.neighbors.At(n)
	if st == nil || !st.disabled {
		return
	}
	st.disabled = false
	if m.started && !m.closed {
		m.scheduleHello(n, m.cfg.HelloInterval)
	}
}

// WithdrawAll marks every adjacent link down and floods one full
// advertisement saying so — the graceful-leave withdrawal. The manager
// keeps running (the caller stops it when departure completes) but probing
// is suspended so no link flaps back up mid-departure.
func (m *Manager) WithdrawAll() {
	for _, n := range m.order {
		st := m.neighbors[n]
		st.disabled = true
		st.pendingAck = false
		st.timer.Stop()
		if st.up {
			st.up = false
			m.view.SetUp(st.linkID, false)
		}
	}
	m.env.ViewChanged()
	m.originateLSA()
}

// ApplyCorrection marks a link's availability from outside the hello and
// LSA machinery — the membership corrector repairing a stale route — with
// the same view-change notification as any protocol update; the view's
// version moves with the write, so routing caches and the flood mask
// track it.
func (m *Manager) ApplyCorrection(id wire.LinkID, up bool) {
	if m.view.Usable(id) == up {
		return
	}
	m.view.SetUp(id, up)
	m.stats.Reconvergences++
	m.env.ViewChanged()
}

// ReconcileAdjacent re-derives the view state of every adjacent link from
// live hello state and returns how many entries it repaired. Remote LSAs
// deliberately never touch a node's own adjacent links (local hello state
// governs them), so a corrupted view entry for an adjacent link has no
// protocol path back to truth: hellos keep succeeding without a
// transition and floods are ignored. The membership corrector calls this
// each sweep; at a legitimate fixed point it repairs nothing and
// allocates nothing.
func (m *Manager) ReconcileAdjacent() int {
	fixed := 0
	for _, n := range m.order {
		st := m.neighbors[n]
		effective := st.up && !st.disabled
		if m.view.Usable(st.linkID) != effective {
			m.view.SetUp(st.linkID, effective)
			fixed++
		}
	}
	if fixed > 0 {
		m.stats.Reconvergences++
		m.env.ViewChanged()
	}
	return fixed
}

// PurgeOrigin forgets the advertisement history of an origin that left or
// rejoined the overlay, so that a rejoiner's restarted numbering wins at
// once rather than after its echo fast-forward.
func (m *Manager) PurgeOrigin(n wire.NodeID) { m.db.Purge(n) }

// Stop cancels all timers.
func (m *Manager) Stop() {
	m.closed = true
	for _, n := range m.order {
		m.neighbors[n].timer.Stop()
	}
	m.refreshTimer.Stop()
}

// View returns the shared connectivity view.
func (m *Manager) View() *topology.View { return m.view }

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats { return m.stats }

// TableBytes returns the memory of the per-node tables: the neighbor table
// and the advertisement database.
func (m *Manager) TableBytes() int { return m.neighbors.Bytes() + m.db.TableBytes() }

// FloodStats returns the advertisement database's flooding counters.
func (m *Manager) FloodStats() flood.Stats { return m.db.Stats() }

// SetOnNeighborState installs a callback invoked after an adjacent link is
// declared down (up=false) or recovers (up=true), right after the link's
// sessions were restarted.
func (m *Manager) SetOnNeighborState(fn func(neighbor wire.NodeID, up bool)) {
	m.onNeighborState = fn
}

// SetOnSessionReset installs the callback that restarts the link-protocol
// sessions to a neighbor. It runs on every down/up transition: across a
// down window frames were lost wholesale — or the peer crashed and
// restarted with fresh sequence state — so the old windows would
// misclassify the peer's next frames as duplicates or wild jumps. Both
// endpoints observe a transition through their own hello machinery, so
// both restart. It also runs when the link-session epoch in a neighbor's
// hellos shows the peer restarted without this end seeing a transition,
// and once more when the peer confirms this end's restart.
func (m *Manager) SetOnSessionReset(fn func(neighbor wire.NodeID)) {
	m.onSessionReset = fn
}

// Neighbors returns the registered neighbors in ascending ID order. The
// slice is the manager's own: callers read it and must not keep it
// across a neighbor registration.
func (m *Manager) Neighbors() []wire.NodeID { return m.order }

// NeighborUp reports whether the link to a neighbor is considered up.
func (m *Manager) NeighborUp(n wire.NodeID) bool {
	st := m.neighbors.At(n)
	return st != nil && st.up
}

func (m *Manager) scheduleHello(n wire.NodeID, after time.Duration) {
	m.neighbors[n].timer.Reset(after)
}

// helloTick sends one probe and accounts for the previous one.
func (m *Manager) helloTick(n wire.NodeID) {
	if m.closed {
		return
	}
	st := m.neighbors[n]
	if st.disabled {
		return
	}
	if st.pendingAck {
		// Previous hello went unanswered; it was already counted in the
		// loss window when sent.
		st.missed++
		m.stats.HellosMissed++
		m.noteHelloWindow(n, st)
		if st.missed >= m.cfg.HelloMiss {
			m.helloTimeout(n, st)
		}
	}
	st.pendingAck = true
	st.helloCount++
	m.stats.HellosSent++
	// Hellos carry the sender's current path index (low byte) so the two
	// endpoints converge on the same provider (§II-A on-net links): the
	// lower node ID owns the choice and the peer adopts it. The upper
	// bits carry the sender's link-session epoch so the peer can detect
	// endpoint resets it did not itself observe.
	m.ctl = wire.Frame{
		Proto:    wire.LPBestEffort,
		Kind:     wire.FHello,
		Seq:      st.epoch<<8 | uint32(st.curPath),
		SendTime: m.env.Clock().Now(),
	}
	m.env.SendControl(n, &m.ctl)
	interval := m.cfg.HelloInterval
	if !st.up {
		interval = m.cfg.DownProbeInterval
	}
	m.scheduleHello(n, interval)
}

// helloTimeout handles HelloMiss consecutive losses: fail over to the next
// underlay path if one remains, otherwise declare the link down.
func (m *Manager) helloTimeout(n wire.NodeID, st *neighborState) {
	st.missed = 0
	paths := m.env.PathCount(n)
	if int(st.curPath)+1 < paths && st.up {
		st.curPath++
		m.stats.Failovers++
		m.env.SetPath(n, st.curPath)
		return
	}
	// Cycle back to the first path for down-probing.
	if st.curPath != 0 {
		st.curPath = 0
		m.env.SetPath(n, 0)
	}
	m.declareDown(n, st)
}

// declareDown takes an up link to a neighbor down, the one path both a
// hello timeout and DisableNeighbor take: the local view marks it, a
// delta floods (a single link changed, so reconvergence traffic scales
// with the change, not with this node's degree), and the neighbor-state
// callback runs.
func (m *Manager) declareDown(n wire.NodeID, st *neighborState) {
	if !st.up {
		return
	}
	st.up = false
	m.stats.DownDetections++
	m.applyLocal(st, false)
	m.originateDelta(st)
	m.restartSessions(n, st)
	m.onNeighborState(n, false)
}

// restartSessions moves the link to a new session epoch and restarts its
// sessions, the local half of the epoch handshake: the epoch stays
// unconfirmed until the peer's hellos carry it.
func (m *Manager) restartSessions(n wire.NodeID, st *neighborState) {
	st.epoch = (st.epoch + 1) & EpochMask
	st.awaitPeer = true
	m.onSessionReset(n)
}

// applyPeerEpoch resynchronizes this end of a link with the epoch h the
// peer advertises in a hello. An epoch ahead of ours means the peer
// restarted its sessions without this side seeing a hello transition
// (one-sided loss, crash-restart): adopt it and restart, or the peer's
// fresh sequences would be swallowed by stale receive windows here. An
// equal epoch while awaiting confirmation means the peer has caught up;
// one final restart discards anything its old endpoints sent in the
// interim.
func (m *Manager) applyPeerEpoch(n wire.NodeID, st *neighborState, h uint32) {
	switch {
	case epochAhead(h, st.epoch):
		st.epoch = h
	case h == st.epoch && st.awaitPeer:
	default:
		return
	}
	st.awaitPeer = false
	m.onSessionReset(n)
}

// epochAhead reports whether epoch h is ahead of e in serial arithmetic
// modulo 2^24, the epoch space a hello carries: ahead by less than half
// the space, or by exactly half with the larger value, so that two ends
// half the space apart still agree which of them is ahead. Within 2^23 of
// each other it is h > e.
func epochAhead(h, e uint32) bool {
	d := (h - e) & EpochMask
	return d != 0 && (d < 1<<23 || d == 1<<23 && h > e)
}

// HandleControl processes hello traffic arriving from a neighbor.
func (m *Manager) HandleControl(n wire.NodeID, f *wire.Frame) {
	if m.closed {
		return
	}
	switch f.Kind {
	case wire.FHello:
		if st := m.neighbors.At(n); st != nil {
			m.applyPeerEpoch(n, st, f.Seq>>8)
			// The link owner (lower node ID) dictates the underlay path;
			// the other endpoint adopts the path carried in the owner's
			// hellos so the link stays on-net (same provider both ways).
			if p := uint8(f.Seq); m.self > n && p != st.curPath && int(p) < m.env.PathCount(n) {
				st.curPath = p
				m.env.SetPath(n, p)
			}
		}
		m.ctl = wire.Frame{
			Proto:    wire.LPBestEffort,
			Kind:     wire.FHelloAck,
			SendTime: f.SendTime,
		}
		m.env.SendControl(n, &m.ctl)
	case wire.FHelloAck:
		m.onHelloAck(n, f)
	}
}

func (m *Manager) onHelloAck(n wire.NodeID, f *wire.Frame) {
	st := m.neighbors.At(n)
	if st == nil || st.disabled {
		return
	}
	st.pendingAck = false
	st.missed = 0
	st.ackCount++
	m.noteHelloWindow(n, st)
	rtt := m.env.Clock().Now() - f.SendTime
	if rtt > 0 {
		if st.rtt == 0 {
			st.rtt = rtt
		} else {
			st.rtt = (7*st.rtt + rtt) / 8
		}
	}
	if !st.up {
		st.up = true
		st.missed = 0
		m.stats.UpDetections++
		m.applyLocal(st, true)
		m.originateLSA()
		m.restartSessions(n, st)
		m.onNeighborState(n, true)
		// The peer may have missed arbitrary updates while the link was
		// down.
		m.db.Resync(n, m.env.SendLSA)
		return
	}
	// The owner publishes the link's measured latency; the other
	// endpoint receives it via the owner's advertisements.
	if st.owner {
		m.maybeAdvertise(st)
	}
}

// noteHelloWindow closes a measurement window when enough hellos have been
// counted, deriving the link loss estimate and re-homing a degraded
// multihomed link onto its next underlay path.
func (m *Manager) noteHelloWindow(n wire.NodeID, st *neighborState) {
	if st.helloCount < m.cfg.LossWindow {
		return
	}
	missRate := 1 - float64(st.ackCount)/float64(st.helloCount)
	// A hello round trip crosses the link twice; halve to estimate
	// one-way loss.
	st.loss = missRate / 2
	st.helloCount, st.ackCount = 0, 0
	// Loss-driven re-homing is the owner's decision; the peer follows via
	// the path index in the owner's hellos.
	if m.cfg.LossFailover > 0 && st.up && m.self < n && st.loss >= m.cfg.LossFailover {
		if paths := m.env.PathCount(n); paths > 1 {
			st.curPath = uint8((int(st.curPath) + 1) % paths)
			m.stats.Failovers++
			m.env.SetPath(n, st.curPath)
			// The closed window measured the old path; start clean so the
			// new path gets a fair measurement.
			st.loss = 0
		}
	}
	if st.up && st.owner {
		m.maybeAdvertise(st)
	}
}

// applyLocal updates the local view for an adjacent link state change.
func (m *Manager) applyLocal(st *neighborState, up bool) {
	m.view.SetUp(st.linkID, up)
	m.stats.Reconvergences++
	m.env.ViewChanged()
}

// setOwned moves an owned link's view entry to a quality as advertisements
// carry it. Routed through SetQuality so the view version moves and the
// routing engine recomputes its cached SPT.
func (m *Manager) setOwned(id wire.LinkID, latency time.Duration, loss float64) {
	latency, loss = quality(latencyUnits(latency), lossUnits(loss))
	m.view.SetQuality(id, latency, loss)
}

// maybeAdvertise floods an update when an owned link's measurements
// drifted materially from its entry in the view, and only then moves the
// entry: the owner's view holds what it last advertised, like every other
// node's, so all of them break equal-cost ties the same way (a view that
// tracked every hello-ack differed from the fleet's by microseconds between
// refreshes, and two nodes could each decide the other served a receiver).
func (m *Manager) maybeAdvertise(st *neighborState) {
	adv := m.view.State[st.linkID]
	latDrift := float64(st.rtt/2-adv.Latency) / float64(max(int64(adv.Latency), 1))
	lossDrift := st.loss - adv.Loss
	if max(latDrift, -latDrift) >= latencyChangeFrac || max(lossDrift, -lossDrift) >= lossChangeAbs {
		m.setOwned(st.linkID, st.rtt/2, st.loss)
		m.stats.Reconvergences++
		m.env.ViewChanged()
		// Quality drift concerns this one link only; the periodic full
		// refresh remains the anti-entropy backstop for lost deltas.
		m.originateDelta(st)
	}
}

// refresh is the periodic full advertisement.
func (m *Manager) refresh() {
	if m.closed {
		return
	}
	m.originateLSA()
	m.refreshTimer.Reset(m.cfg.RefreshInterval)
}

// originateLSA floods this node's current adjacent link states in full.
// Full advertisements are the authoritative anti-entropy mechanism: the
// startup announcement, the periodic refresh, and the crash-echo
// fast-forward all use them, so any delta a receiver missed is repaired
// within one refresh interval.
func (m *Manager) originateLSA() {
	entries := make([]Entry, 0, len(m.order))
	for _, n := range m.order {
		st := m.neighbors[n]
		cur := m.view.State[st.linkID]
		entries = append(entries, Entry{
			Link:    st.linkID,
			Up:      st.up,
			Latency: cur.Latency,
			Loss:    cur.Loss,
		})
	}
	adv := Advertisement{Origin: m.self, Seq: m.db.Next(), Entries: entries}
	m.stats.LSAsSent++
	m.env.FloodLSA(adv.Marshal(), 0)
}

// originateDelta floods an advertisement carrying only the one changed
// adjacent link, sharing the origin's sequence space with full
// advertisements so receivers apply the ordinary highest-seq rule. Delta
// floods keep per-change traffic O(1) in node degree — the flooding-side
// half of logarithmic-cost maintenance at 10k nodes.
func (m *Manager) originateDelta(st *neighborState) {
	cur := m.view.State[st.linkID]
	adv := Advertisement{
		Origin: m.self,
		Seq:    m.db.Next(),
		Delta:  true,
		Entries: []Entry{{
			Link:    st.linkID,
			Up:      st.up,
			Latency: cur.Latency,
			Loss:    cur.Loss,
		}},
	}
	m.stats.LSAsSent++
	m.stats.DeltaLSAsSent++
	m.env.FloodLSA(adv.Marshal(), 0)
}

// HandleLSA processes a link-state packet received from a neighbor,
// applying newer information and reflooding it.
func (m *Manager) HandleLSA(from wire.NodeID, p *wire.Packet) error {
	origin, seq, err := peekAdvertisement(p.Payload)
	if err != nil {
		return fmt.Errorf("linkstate: bad advertisement from %v: %w", from, err)
	}
	switch m.db.Offer(origin, seq) {
	case flood.Stale, flood.Refused:
		return nil
	case flood.Reborn:
		m.originateLSA()
		return nil
	}
	adv := &m.rxAdv
	adv.decode(p.Payload)
	// Only full advertisements are retained for recovery resync: a delta
	// is meaningless without the state it amends.
	m.db.Accept(origin, seq, p.Payload, !adv.Delta)
	changed := false
	for _, e := range adv.Entries {
		l, ok := m.view.G.Link(e.Link)
		if !ok {
			continue
		}
		// Only an endpoint of a link may advertise it.
		if l.A != adv.Origin && l.B != adv.Origin {
			continue
		}
		cur := &m.view.State[e.Link]
		if l.A == adv.Origin {
			// The owner's entry is authoritative for quality — including
			// at the link's other endpoint, so both ends route on the
			// same values. Routed through SetQuality so the view version
			// tracks it.
			if m.view.SetQuality(e.Link, e.Latency, e.Loss) {
				changed = true
			}
		}
		// Availability is sensed at both ends: either endpoint's report
		// changes it, except for our own adjacent links, where local
		// hello state governs. Routed through SetUp so the view version
		// (and with it the cached flood mask) tracks the change.
		if l.A != m.self && l.B != m.self && cur.Up != e.Up {
			m.view.SetUp(e.Link, e.Up)
			changed = true
		}
	}
	if changed {
		m.stats.Reconvergences++
		m.env.ViewChanged()
	}
	if adv.Delta {
		m.stats.DeltaLSAsForwarded++
	}
	m.env.FloodLSA(p.Payload, from)
	return nil
}
