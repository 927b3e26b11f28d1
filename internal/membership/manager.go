package membership

import (
	"encoding/binary"
	"fmt"
	"time"

	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// Env is what the manager needs from its host overlay node. Payload
// slices passed to Flood and Send are only valid until the call returns;
// implementations must serialize or copy synchronously.
type Env interface {
	// Clock returns the node's clock.
	Clock() sim.Clock
	// Flood sends a membership packet to every current neighbor except
	// the one it came from (zero to send to all).
	Flood(payload []byte, except wire.NodeID)
	// Send sends a membership packet to one neighbor.
	Send(to wire.NodeID, payload []byte)
	// Neighbors returns the node's neighbors in ascending ID order. The
	// manager must not modify or retain the returned slice.
	Neighbors() []wire.NodeID
}

// Config parameterizes dynamic membership. The zero value of any field
// takes its default.
type Config struct {
	// SweepInterval is the detector period: each sweep runs the local
	// predicates and probes every neighbor with a directory digest. The
	// stabilization bound is measured in sweeps.
	SweepInterval time.Duration
	// JoinRetry is the admission-request retry period while a joining
	// node awaits its own admission record.
	JoinRetry time.Duration
	// Seed lists the members admitted at epoch 1 before the protocol
	// starts — the statically configured initial fleet. A runtime joiner
	// leaves it empty and learns the directory from its contact.
	Seed []wire.NodeID
}

// DefaultConfig returns production defaults.
func DefaultConfig() Config {
	return Config{
		SweepInterval: 500 * time.Millisecond,
		JoinRetry:     300 * time.Millisecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.SweepInterval <= 0 {
		c.SweepInterval = d.SweepInterval
	}
	if c.JoinRetry <= 0 {
		c.JoinRetry = d.JoinRetry
	}
	return c
}

// Manager runs the dynamic-membership protocol for one node: directory
// replication, join admission, graceful departure, and the periodic
// detector/corrector sweep that makes the control plane self-stabilizing.
// All methods must be called from the node's executor.
type Manager struct {
	env  Env
	self wire.NodeID
	cfg  Config
	dir  *Directory
	view *topology.View

	stats   Stats
	closed  bool
	started bool
	// leaving suppresses the self-defense refutation once this node
	// announced its own departure.
	leaving bool
	// contact is the admission point while a join is in progress.
	contact   wire.NodeID
	joinTimer sim.Timer
	sweep     sim.Timer

	onChange    func(id wire.NodeID, st Status)
	onFinding   func(Finding)
	onReconcile func() int

	// scratch buffers keep the steady-state sweep allocation-free.
	buf      []byte
	findings []Finding
	recs     []Record
}

// NewManager returns a manager for node self, seeding the directory from
// cfg.Seed at epoch 1.
func NewManager(env Env, self wire.NodeID, cfg Config) *Manager {
	m := &Manager{
		env:  env,
		self: self,
		cfg:  cfg.withDefaults(),
		dir:  NewDirectory(),
	}
	for _, id := range m.cfg.Seed {
		m.dir.Apply(Record{ID: id, Epoch: 1, Status: StatusJoined})
	}
	m.joinTimer = env.Clock().NewTimer(m.sendJoinReq)
	m.sweep = env.Clock().NewTimer(m.sweepTick)
	return m
}

// SetView installs the topology view the detector audits against the
// directory.
func (m *Manager) SetView(v *topology.View) { m.view = v }

// SetOnChange installs a callback invoked after a member's status
// changed in the directory (admissions, departures, refutations). The
// host node uses it to enable or disable the adjacent link machinery.
func (m *Manager) SetOnChange(fn func(id wire.NodeID, st Status)) { m.onChange = fn }

// SetOnFinding installs the corrector hook invoked for every
// topology-level finding of the detector sweep. The host node repairs the
// flagged state (downing stale links, disabling departed neighbors); the
// manager counts the correction.
func (m *Manager) SetOnFinding(fn func(Finding)) { m.onFinding = fn }

// SetOnReconcile installs an extra corrector predicate run once per sweep.
// It returns how many local repairs it made; the manager folds the count
// into the inconsistency/correction stats. The host node uses it to
// reconcile adjacent-link view state against live hello state — the one
// corruption class no flood can repair, because remote LSAs never govern a
// node's own adjacent links.
func (m *Manager) SetOnReconcile(fn func() int) { m.onReconcile = fn }

// Directory returns the node's member directory.
func (m *Manager) Directory() *Directory { return m.dir }

// Stats returns the protocol counters.
func (m *Manager) Stats() Stats { return m.stats }

// Stats counts dynamic-membership protocol activity on one node:
// admissions and departures it observed, directory gossip volume, and the
// self-stabilization machinery's work — detector sweeps run,
// inconsistencies flagged, and corrective actions applied. It is written
// and read on the node's control loop.
type Stats struct {
	// Joins counts members this node learned joined (including itself).
	Joins uint64
	// Leaves counts members this node learned left.
	Leaves uint64
	// UpdatesSent counts directory-update floods this node originated.
	UpdatesSent uint64
	// DigestsSent counts view-digest probes sent to neighbors.
	DigestsSent uint64
	// SyncsSent counts full-directory syncs pushed to divergent peers.
	SyncsSent uint64
	// DetectorSweeps counts periodic detector rounds executed.
	DetectorSweeps uint64
	// Inconsistencies counts local inconsistencies the detector flagged
	// (stale links to departed members, digest divergence, refuted
	// self-departure records).
	Inconsistencies uint64
	// Corrections counts corrective actions the corrector applied.
	Corrections uint64
}

// Merge returns the field-wise sum of two counter sets, for fleet-level
// aggregation across nodes (and across a node's dead incarnations).
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		Joins:           s.Joins + o.Joins,
		Leaves:          s.Leaves + o.Leaves,
		UpdatesSent:     s.UpdatesSent + o.UpdatesSent,
		DigestsSent:     s.DigestsSent + o.DigestsSent,
		SyncsSent:       s.SyncsSent + o.SyncsSent,
		DetectorSweeps:  s.DetectorSweeps + o.DetectorSweeps,
		Inconsistencies: s.Inconsistencies + o.Inconsistencies,
		Corrections:     s.Corrections + o.Corrections,
	}
}

// IsMember reports whether id is currently a joined member.
func (m *Manager) IsMember(id wire.NodeID) bool { return m.dir.IsMember(id) }

// Joined reports whether this node itself is an admitted member.
func (m *Manager) Joined() bool { return m.dir.IsMember(m.self) }

// AllowsOrigin is the link-state admission gate: a node with a populated
// directory accepts advertisements only from current members; an empty
// directory (a joiner before its first sync) admits everything, since it
// has no basis to reject.
func (m *Manager) AllowsOrigin(id wire.NodeID) bool {
	return m.dir.Len() == 0 || m.dir.IsMember(id)
}

// Start begins the periodic detector/corrector sweep.
func (m *Manager) Start() {
	m.started = true
	m.sweep.Reset(m.cfg.SweepInterval)
}

// Stop cancels all timers.
func (m *Manager) Stop() {
	m.closed = true
	m.joinTimer.Stop()
	m.sweep.Stop()
}

// Join starts admission through contact: the join request retries until
// this node sees its own admission record, so a lost request or reply
// only delays the join.
func (m *Manager) Join(contact wire.NodeID) {
	if m.closed || m.Joined() {
		return
	}
	m.contact = contact
	m.leaving = false
	m.sendJoinReq()
}

func (m *Manager) sendJoinReq() {
	if m.closed || m.Joined() {
		return
	}
	m.buf = AppendJoinReq(m.buf[:0], m.self)
	m.env.Send(m.contact, m.buf)
	m.joinTimer.Reset(m.cfg.JoinRetry)
}

// Leave announces this node's graceful departure: its directory record
// advances to a departed epoch and floods. The caller withdraws LSAs and
// drains sessions; crash departures skip all of this and are handled by
// the survivors' link-state down-detection plus directory correction.
func (m *Manager) Leave() {
	if m.closed || m.leaving {
		return
	}
	m.leaving = true
	m.joinTimer.Stop()
	epoch := uint32(1)
	if cur, ok := m.dir.Get(m.self); ok {
		epoch = cur.Epoch + 1
	}
	rec := Record{ID: m.self, Epoch: epoch, Status: StatusLeft}
	if m.dir.Apply(rec) {
		m.stats.Leaves++
		m.floodUpdate(rec)
	}
}

// InjectRecord plants a record directly into the directory, bypassing
// every protocol path — no flood, no refutation, no change callback. It
// exists for chaos campaigns and tests that corrupt a replica's state
// and then measure how long the detector/corrector sweeps take to
// converge the fleet back to a legal fixed point.
func (m *Manager) InjectRecord(r Record) bool { return m.dir.Apply(r) }

// HandlePacket processes a membership packet received from a neighbor.
func (m *Manager) HandlePacket(from wire.NodeID, p *wire.Packet) error {
	if m.closed {
		return nil
	}
	if len(p.Payload) == 0 {
		return fmt.Errorf("membership: empty payload from %v: %w", from, ErrBadMessage)
	}
	src := p.Payload
	switch src[0] {
	case msgUpdate:
		if len(src) < 3 {
			return fmt.Errorf("membership: short update from %v: %w", from, ErrBadMessage)
		}
		count := int(binary.BigEndian.Uint16(src[1:]))
		recs, err := decodeRecords(src[3:], count)
		if err != nil {
			return err
		}
		changed := false
		for i := 0; i < count; i++ {
			if m.applyExternal(decodeRecord(recs[i*recLen:])) {
				changed = true
			}
		}
		if changed {
			// Reflooding only on change bounds update propagation: once
			// every replica holds the records, the flood dies out.
			m.env.Flood(p.Payload, from)
		}
	case msgDigest:
		if len(src) < 11 {
			return fmt.Errorf("membership: short digest from %v: %w", from, ErrBadMessage)
		}
		count := int(binary.BigEndian.Uint16(src[1:]))
		digest := binary.BigEndian.Uint64(src[3:])
		if count != m.dir.Len() || digest != m.dir.Digest() {
			m.stats.Inconsistencies++
			m.sendSync(from)
		}
	case msgJoinReq:
		if len(src) < 3 {
			return fmt.Errorf("membership: short join request from %v: %w", from, ErrBadMessage)
		}
		m.admit(wire.NodeID(binary.BigEndian.Uint16(src[1:])))
		m.sendSync(from)
	case msgSync:
		if len(src) < 11 {
			return fmt.Errorf("membership: short sync from %v: %w", from, ErrBadMessage)
		}
		theirDigest := binary.BigEndian.Uint64(src[1:])
		count := int(binary.BigEndian.Uint16(src[9:]))
		recs, err := decodeRecords(src[11:], count)
		if err != nil {
			return err
		}
		m.recs = m.recs[:0]
		for i := 0; i < count; i++ {
			r := decodeRecord(recs[i*recLen:])
			if m.applyExternal(r) {
				m.recs = append(m.recs, r)
			}
		}
		if len(m.recs) > 0 {
			// Propagate what the sync taught us beyond this one edge.
			m.floodUpdate(m.recs...)
		}
		// A remaining digest gap after the merge means we hold records
		// the sender lacks: sync back. The epoch order makes knowledge
		// strictly grow each exchange, so the ping-pong terminates at the
		// merged fixed point.
		if m.dir.Digest() != theirDigest {
			m.sendSync(from)
		}
	default:
		return fmt.Errorf("membership: kind %d from %v: %w", src[0], from, ErrBadMessage)
	}
	return nil
}

// admit records a joiner at the next epoch and floods the admission — the
// contact-node half of the join handshake. Re-admitting a current member
// is a no-op (request retries are idempotent).
func (m *Manager) admit(id wire.NodeID) {
	if id == 0 {
		return
	}
	epoch := uint32(1)
	if cur, ok := m.dir.Get(id); ok {
		if cur.Status == StatusJoined {
			return
		}
		epoch = cur.Epoch + 1
	}
	rec := Record{ID: id, Epoch: epoch, Status: StatusJoined}
	if m.dir.Apply(rec) {
		m.stats.Joins++
		m.noteChange(rec)
		m.floodUpdate(rec)
	}
}

// applyExternal merges one record learned from the network, defending
// against records of this node's own departure, and reports whether the
// directory changed.
func (m *Manager) applyExternal(r Record) bool {
	if r.ID == m.self && r.Status == StatusLeft && !m.leaving {
		if cur, ok := m.dir.Get(m.self); !ok || r.supersedes(cur) {
			m.stats.Inconsistencies++
			m.refuteSelf(r.Epoch)
		}
		return false
	}
	if !m.dir.Apply(r) {
		return false
	}
	switch r.Status {
	case StatusJoined:
		m.stats.Joins++
	case StatusLeft:
		m.stats.Leaves++
	}
	m.noteChange(r)
	return true
}

// refuteSelf is the self-defense corrector: a live node seeing a record
// of its own departure re-announces itself joined at the next epoch,
// which supersedes the bad record everywhere it spread.
func (m *Manager) refuteSelf(badEpoch uint32) {
	rec := Record{ID: m.self, Epoch: badEpoch + 1, Status: StatusJoined}
	if m.dir.Apply(rec) {
		m.stats.Corrections++
		m.floodUpdate(rec)
	}
}

func (m *Manager) noteChange(r Record) {
	if m.onChange != nil {
		m.onChange(r.ID, r.Status)
	}
}

func (m *Manager) floodUpdate(recs ...Record) {
	m.stats.UpdatesSent++
	m.buf = AppendUpdate(m.buf[:0], recs...)
	m.env.Flood(m.buf, 0)
}

func (m *Manager) sendSync(to wire.NodeID) {
	m.stats.SyncsSent++
	m.buf = AppendSync(m.buf[:0], m.dir)
	m.env.Send(to, m.buf)
}

// sweepTick is the periodic sweep.
func (m *Manager) sweepTick() {
	if m.closed {
		return
	}
	m.Sweep()
	m.sweep.Reset(m.cfg.SweepInterval)
}

// Sweep runs one detector/corrector round synchronously: the self-defense
// predicate, the stale-link predicate over the topology view, and an
// anti-entropy digest probe to every neighbor. At a legitimate fixed
// point — directory and view consistent, replicas equal — a sweep flags
// nothing, corrects nothing, and allocates nothing; the digest probes it
// sends are answered only by divergent neighbors.
func (m *Manager) Sweep() {
	m.stats.DetectorSweeps++
	// A planted record of our own departure (corrupted-state injection)
	// may sit in the directory without ever arriving as a message; the
	// sweep refutes it just as the merge path would.
	if cur, ok := m.dir.Get(m.self); ok && cur.Status == StatusLeft && !m.leaving {
		m.stats.Inconsistencies++
		m.refuteSelf(cur.Epoch)
	}
	if m.view != nil {
		m.findings = Detect(m.view, m.dir, m.findings[:0])
		for _, f := range m.findings {
			m.stats.Inconsistencies++
			if m.onFinding != nil {
				m.onFinding(f)
				m.stats.Corrections++
			}
		}
	}
	if m.onReconcile != nil {
		if n := m.onReconcile(); n > 0 {
			m.stats.Inconsistencies += uint64(n)
			m.stats.Corrections += uint64(n)
		}
	}
	if m.dir.Len() > 0 {
		m.buf = AppendDigest(m.buf[:0], m.dir.Len(), m.dir.Digest())
		for _, nb := range m.env.Neighbors() {
			m.stats.DigestsSent++
			m.env.Send(nb, m.buf)
		}
	}
}
