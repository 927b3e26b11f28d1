// Package flood holds the rule by which the routing level's two replicated
// databases — link state and group state (Fig. 2, §II-B) — stay alike at
// every overlay node: each origin numbers what it floods, the newest number
// per origin wins, a copy already seen is dropped on its header, an origin
// that restarted fast-forwards past its own echo, an origin that is not an
// overlay member is refused, and a healed link is pushed everything retained.
//
// A DB is that rule's state for one database at one node. It sends nothing
// and decodes nothing: the owning manager checks the payload's framing,
// asks Offer what the (origin, sequence) header amounts to, applies news to
// its own view and calls Accept, and does every transmission itself.
// Membership's directory is not a DB: its records are ordered by per-record
// epoch, reflooded only when they changed something, and reconciled by
// digest, which is a different rule (DESIGN.md §11).
package flood

import (
	"sonet/internal/seqno"
	"sonet/internal/wire"
)

// Verdict is what a received (origin, sequence) header amounts to.
type Verdict uint8

const (
	// Stale is a copy of something already seen, or an echo of this node's
	// own flood at or below its counter — what a flood mostly delivers. It
	// is counted and needs no decoding.
	Stale Verdict = iota
	// Reborn is an echo of this node's own flood numbered past its counter:
	// the node restarted while its earlier floods still circulate. The
	// counter has moved past the echo; the caller floods its current state,
	// which then supersedes the old one everywhere.
	Reborn
	// Refused is news from an origin the membership gate rejects: counted,
	// not recorded, not applied and not reflooded.
	Refused
	// News is newer than anything seen from its origin: the caller applies
	// it, calls Accept, and refloods.
	News
)

// Stats counts one database's flooding.
type Stats struct {
	// Flooded counts payloads accepted as news and reflooded.
	Flooded uint64
	// Stale counts received payloads discarded on their header alone: a copy
	// of one already seen, or an echo of this node's own.
	Stale uint64
	// Refused counts received payloads dropped because their origin is not
	// a current overlay member (dynamic membership).
	Refused uint64
	// Resync counts retained payloads pushed to a neighbor whose link
	// recovered.
	Resync uint64
}

// DB is one node's flood state for one replicated database. All methods
// must be called from the node's executor.
type DB struct {
	self wire.NodeID
	// seq numbers this node's own floods.
	seq uint32
	// seen holds the highest sequence accepted per origin; an origin never
	// heard from (or purged since) has ok unset.
	seen wire.NodeTable[mark]
	// held retains the latest payload per origin for link-recovery resync,
	// overwritten in place; nil when none is retained (a payload is never
	// empty: it carries its origin and sequence).
	held wire.NodeTable[[]byte]
	// gate, when set, admits origins; nil admits all.
	gate  func(wire.NodeID) bool
	stats Stats
}

// mark is one origin's highest accepted sequence.
type mark struct {
	seq uint32
	ok  bool
}

// New returns an empty database for node self.
func New(self wire.NodeID) *DB { return &DB{self: self} }

// Stats returns a snapshot of counters.
func (d *DB) Stats() Stats { return d.stats }

// SetGate installs the overlay-membership gate. A nil gate (the default)
// admits every origin, which is the static-topology behaviour; with one
// installed, news from an origin it rejects is Refused, so a departed or
// never-admitted node cannot put state back into the fleet — neither
// directly nor through a neighbor that was partitioned away while the node
// left and pushes what it retains when its link heals.
func (d *DB) SetGate(admits func(origin wire.NodeID) bool) { d.gate = admits }

// Next returns the sequence number for this node's next flood.
func (d *DB) Next() uint32 {
	d.seq++
	return d.seq
}

// Offer classifies a received header; a refused origin's sequence is not
// recorded. After a crash-restart a node's counter starts over while its
// earlier floods still circulate with higher numbers, so peers would discard
// everything it floods until the counter caught up: an own echo above the
// counter moves the counter there (Reborn). Strictly above, so that the
// steady-state echo of the current flood — every cycle in the topology
// returns one — does not feed the next flood. Above and newest are serial
// (seqno.LT), so an origin's numbering wraps past 2^32 like any other.
func (d *DB) Offer(origin wire.NodeID, seq uint32) Verdict {
	if origin == d.self {
		if seqno.LT(d.seq, seq) {
			d.seq = seq
			return Reborn
		}
	} else if last := d.seen.At(origin); !last.ok || seqno.LT(last.seq, seq) {
		if d.gate != nil && !d.gate(origin) {
			d.stats.Refused++
			return Refused
		}
		return News
	}
	d.stats.Stale++
	return Stale
}

// Accept records news from another origin as the newest seen and counts it
// as flooded. With retain set the payload is copied as the origin's entry
// for Resync; a payload that only amends earlier state (a link-state delta)
// is not retained, so a resync may replay a sequence older than ones already
// seen — harmlessly stale at the receiver — and the origin's next full flood
// remains the authoritative repair.
func (d *DB) Accept(origin wire.NodeID, seq uint32, payload []byte, retain bool) {
	d.seen.Put(origin, mark{seq: seq, ok: true})
	d.stats.Flooded++
	if retain {
		d.held.Put(origin, append(d.held.At(origin)[:0], payload...))
	}
}

// Resync pushes every retained payload to one neighbor, once each in origin
// order: the peer may have missed arbitrary floods while the link was down.
// The walk spans the largest origin ID retained; it runs once per link
// recovery, not per flood.
func (d *DB) Resync(neighbor wire.NodeID, send func(neighbor wire.NodeID, payload []byte)) {
	for _, payload := range d.held {
		if payload != nil {
			d.stats.Resync++
			send(neighbor, payload)
		}
	}
}

// Purge forgets an origin: its highest-seen sequence and retained payload. A
// node that rejoins restarts its numbering from scratch; without the purge
// its fresh floods would lose the newest-wins race against its own earlier
// ones until the echo fast-forward caught up.
func (d *DB) Purge(origin wire.NodeID) {
	d.seen.Put(origin, mark{})
	d.held.Put(origin, nil)
}

// TableBytes returns the memory of the per-origin tables.
func (d *DB) TableBytes() int { return d.seen.Bytes() + d.held.Bytes() }
