// Package groups implements the Group State component of the overlay node
// software architecture (Fig. 2): every overlay node tracks which groups
// its own connected clients belong to and shares a node-level membership
// summary with all other overlay nodes, enabling multicast and anycast
// services that the Internet does not natively provide (§II-B).
//
// The two-level client–daemon hierarchy keeps this state small: a node
// advertises only "I have members of group G", never per-client detail, so
// global group state scales with nodes × groups rather than clients.
package groups

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"sonet/internal/flood"
	"sonet/internal/wire"
)

// ErrBadAnnouncement reports a malformed group-state payload.
var ErrBadAnnouncement = errors.New("malformed group-state announcement")

// Env is what the manager needs from its host overlay node. Both sends
// borrow payload for the call only: it is the manager's storage, rewritten
// by its next announcement, so an env that keeps it past the call copies
// it (node.floodControl marshals it synchronously; the test fabric copies
// it per peer).
type Env interface {
	// FloodGroupState sends a group-state packet to every current
	// neighbor except the one it came from (zero to send to all).
	FloodGroupState(payload []byte, except wire.NodeID)
	// SendGroupState sends a group-state packet to one neighbor
	// (database resync on link recovery).
	SendGroupState(neighbor wire.NodeID, payload []byte)
	// GroupsChanged notifies the node that membership changed and cached
	// multicast trees must be recomputed.
	GroupsChanged()
}

// Announcement is one node's sequence-numbered full membership summary:
// the set of groups for which the origin currently has local members.
// Announcements are idempotent full state, so a lost flood is repaired by
// the next refresh.
type Announcement struct {
	// Origin is the announcing node.
	Origin wire.NodeID
	// Seq orders announcements from one origin.
	Seq uint32
	// Groups is the origin's current locally-joined group set, sorted.
	Groups []wire.GroupID
}

// Marshal encodes the announcement into a fresh slice.
func (a *Announcement) Marshal() []byte {
	return a.AppendTo(make([]byte, 0, 8+4*len(a.Groups)))
}

// AppendTo appends the announcement's encoding to buf and returns the
// extended slice.
func (a *Announcement) AppendTo(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(a.Origin))
	buf = binary.BigEndian.AppendUint32(buf, a.Seq)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(a.Groups)))
	for _, id := range a.Groups {
		buf = binary.BigEndian.AppendUint32(buf, uint32(id))
	}
	return buf
}

// peekAnnouncement validates a group-state payload's framing and returns
// the origin and sequence from its fixed header, decoding no group: most
// copies a flood delivers are discarded on these two fields alone.
func peekAnnouncement(src []byte) (origin wire.NodeID, seq uint32, err error) {
	if len(src) < 8 {
		return 0, 0, fmt.Errorf("groups: header %d bytes: %w", len(src), ErrBadAnnouncement)
	}
	if count, body := int(binary.BigEndian.Uint16(src[6:])), len(src)-8; body < 4*count {
		return 0, 0, fmt.Errorf("groups: %d groups in %d bytes: %w", count, body, ErrBadAnnouncement)
	}
	return wire.NodeID(binary.BigEndian.Uint16(src[0:])), binary.BigEndian.Uint32(src[2:]), nil
}

// decode fills a from a payload peekAnnouncement accepted, reusing
// a.Groups' backing array.
func (a *Announcement) decode(src []byte) {
	a.Origin = wire.NodeID(binary.BigEndian.Uint16(src[0:]))
	a.Seq = binary.BigEndian.Uint32(src[2:])
	a.Groups = a.Groups[:0]
	for g := src[8 : 8+4*int(binary.BigEndian.Uint16(src[6:]))]; len(g) > 0; g = g[4:] {
		a.Groups = append(a.Groups, wire.GroupID(binary.BigEndian.Uint32(g)))
	}
}

// Stats counts group-state flooding activity.
type Stats = flood.Stats

// Manager is the Group State component for one node. All methods must be
// called from the node's executor.
type Manager struct {
	env  Env
	self wire.NodeID

	// local holds reference counts of local client joins per group.
	local map[wire.GroupID]int
	// members maps each group to the sorted slice of overlay nodes with
	// members, maintained by binary-search insertion so Members can return
	// it without allocating.
	members map[wire.GroupID][]wire.NodeID
	// db numbers this node's announcements, orders everyone else's and
	// retains the latest per origin for link-recovery resync.
	db *flood.DB
	// remote holds the last applied group set per origin, sorted, to diff.
	remote wire.NodeTable[[]wire.GroupID]
	// rxAnn is the decode target of HandleAnnouncement.
	rxAnn Announcement
	// txAnn and txBuf are the announcement announce builds and its
	// encoding, so an announcement is no heap object of its own.
	// announcing marks txBuf in flight: an env that delivers
	// synchronously can bring a flood.Reborn echo back into announce
	// while the outer flood still sends txBuf, and that inner
	// announcement builds in storage of its own.
	txAnn      Announcement
	txBuf      []byte
	announcing bool

	version uint64
}

// NewManager returns a group-state manager for node self.
func NewManager(env Env, self wire.NodeID) *Manager {
	return &Manager{
		env:     env,
		self:    self,
		local:   make(map[wire.GroupID]int),
		members: make(map[wire.GroupID][]wire.NodeID),
		db:      flood.New(self),
	}
}

// TableBytes returns the memory of the per-node tables: the per-origin
// group sets and the flood database.
func (m *Manager) TableBytes() int { return m.remote.Bytes() + m.db.TableBytes() }

// Version returns a counter incremented on every membership change, for
// multicast tree cache invalidation.
func (m *Manager) Version() uint64 { return m.version }

// Stats returns a snapshot of counters.
func (m *Manager) Stats() Stats { return m.db.Stats() }

// Join registers a local client's membership in a group. The first local
// member triggers an announcement flood; only receivers need to join
// (§III-B: any client can send to the group).
func (m *Manager) Join(g wire.GroupID) {
	m.local[g]++
	if m.local[g] == 1 {
		m.setMember(g, m.self, true)
		m.announce()
	}
}

// Leave unregisters a local client's membership. The last local member
// leaving triggers an announcement flood.
func (m *Manager) Leave(g wire.GroupID) {
	n, ok := m.local[g]
	if !ok {
		return
	}
	if n <= 1 {
		delete(m.local, g)
		m.setMember(g, m.self, false)
		m.announce()
		return
	}
	m.local[g] = n - 1
}

// LocalMember reports whether this node has local members of g.
func (m *Manager) LocalMember(g wire.GroupID) bool { return m.local[g] > 0 }

// LocalGroups returns the groups with local members, in no particular
// order (a fresh slice; the caller may keep it). The routing engine's
// forwarding-snapshot publisher uses it to freeze local membership for
// lock-free readers on other shards.
func (m *Manager) LocalGroups() []wire.GroupID {
	out := make([]wire.GroupID, 0, len(m.local))
	for g, n := range m.local {
		if n > 0 {
			out = append(out, g)
		}
	}
	return out
}

// Members returns the overlay nodes currently holding members of g,
// sorted by node ID. The returned slice is the manager's internal state:
// the caller must not modify it, and it is valid only until the next
// membership change.
func (m *Manager) Members(g wire.GroupID) []wire.NodeID {
	return m.members[g]
}

// Refresh refloods the node's current membership; the node calls this
// periodically to repair lost announcements.
func (m *Manager) Refresh() { m.announce() }

// HandleAnnouncement processes a group-state packet received from a
// neighbor, applying newer information and reflooding it.
func (m *Manager) HandleAnnouncement(from wire.NodeID, p *wire.Packet) error {
	origin, seq, err := peekAnnouncement(p.Payload)
	if err != nil {
		return err
	}
	switch m.db.Offer(origin, seq) {
	case flood.Stale, flood.Refused:
		return nil
	case flood.Reborn:
		m.announce()
		return nil
	}
	m.db.Accept(origin, seq, p.Payload, true)

	a := &m.rxAnn
	a.decode(p.Payload)
	if !slices.IsSorted(a.Groups) {
		slices.Sort(a.Groups)
	}
	if m.applyRemote(origin, slices.Compact(a.Groups)) {
		m.version++
		m.env.GroupsChanged()
	}
	m.env.FloodGroupState(p.Payload, from)
	return nil
}

// SetMemberCheck installs the overlay-membership gate for announcement
// acceptance (flood.DB.SetGate).
func (m *Manager) SetMemberCheck(fn func(wire.NodeID) bool) { m.db.SetGate(fn) }

// PurgeOrigin forgets an origin's announcement history, so that a rejoiner's
// restarted numbering wins at once. A departed origin has left the overlay
// and announces nothing more, so its memberships go with it; a rejoined one
// keeps them until its next announcement says otherwise.
func (m *Manager) PurgeOrigin(origin wire.NodeID, departed bool) {
	m.db.Purge(origin)
	if !departed {
		return
	}
	changed := m.applyRemote(origin, nil)
	m.remote.Put(origin, nil)
	if changed {
		m.version++
		m.env.GroupsChanged()
	}
}

// applyRemote reconciles an origin's full group set, sorted and free of
// repeats, against the previous one by walking both, returning whether
// membership changed.
func (m *Manager) applyRemote(origin wire.NodeID, groups []wire.GroupID) bool {
	prev := m.remote.At(origin)
	changed := false
	for i, j := 0, 0; i < len(prev) || j < len(groups); {
		switch {
		case j == len(groups) || i < len(prev) && prev[i] < groups[j]:
			m.setMemberRaw(prev[i], origin, false)
			changed = true
			i++
		case i == len(prev) || groups[j] < prev[i]:
			m.setMemberRaw(groups[j], origin, true)
			changed = true
			j++
		default:
			i, j = i+1, j+1
		}
	}
	if prev != nil || len(groups) > 0 {
		m.remote.Put(origin, append(prev[:0], groups...))
	}
	return changed
}

func (m *Manager) setMember(g wire.GroupID, n wire.NodeID, member bool) {
	m.setMemberRaw(g, n, member)
	m.version++
	m.env.GroupsChanged()
}

func (m *Manager) setMemberRaw(g wire.GroupID, n wire.NodeID, member bool) {
	set := m.members[g]
	i, present := slices.BinarySearch(set, n)
	switch {
	case member == present:
	case member:
		m.members[g] = slices.Insert(set, i, n)
	case len(set) == 1:
		delete(m.members, g)
	default:
		m.members[g] = slices.Delete(set, i, i+1)
	}
}

// Resync pushes the latest known announcement of every origin, plus this
// node's own membership, to one neighbor whose link just recovered.
func (m *Manager) Resync(n wire.NodeID) {
	m.db.Resync(n, m.env.SendGroupState)
	m.announce()
}

// announce floods this node's full current membership.
func (m *Manager) announce() {
	outer := !m.announcing
	a, buf := &m.txAnn, m.txBuf[:0]
	if !outer {
		a, buf = new(Announcement), nil
	}
	a.Origin, a.Seq, a.Groups = m.self, m.db.Next(), a.Groups[:0]
	for g := range m.local {
		a.Groups = append(a.Groups, g)
	}
	slices.Sort(a.Groups)
	buf = a.AppendTo(buf)
	if outer {
		m.txBuf, m.announcing = buf, true
	}
	m.env.FloodGroupState(buf, 0)
	if outer {
		m.announcing = false
	}
}
