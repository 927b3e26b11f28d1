// Package membership implements dynamic overlay membership with
// self-stabilizing topology maintenance. A node joins the running overlay
// through any existing contact node (join request → admission → flooded
// directory update → LSA-announced link establishment), leaves gracefully
// (departure record + LSA withdrawal) or by crash (link-state
// down-detection fires on its own), and the control plane converges back
// to the intended topology from arbitrary corrupted state.
//
// The stabilization design follows the detector/corrector decomposition of
// Berns' general framework for self-stabilizing overlay networks: a
// periodic detector evaluates purely local predicates against the node's
// membership directory and topology view, and a corrector repairs every
// flagged inconsistency with a local action whose effects flood outward.
// Directory records are epoch-versioned — higher epoch wins, departure
// beats admission at equal epoch, and a live node refutes a record of its
// own departure at the record's epoch plus one — so merges are commutative,
// associative, and idempotent, and anti-entropy digest gossip between
// neighbors drives every pair of directories to the join-semilattice
// supremum within a bounded number of exchange rounds (one per overlay
// hop), in the spirit of Götte & Scheideler's underlay-aware
// self-stabilization.
package membership

import "sonet/internal/wire"

// Status is a member's lifecycle state in the directory.
type Status uint8

const (
	// StatusJoined marks a current overlay member.
	StatusJoined Status = 1
	// StatusLeft marks a departed member. Departure records are retained
	// (not deleted) so a stale Joined record arriving later cannot
	// resurrect a gone node; a genuine rejoin supersedes at a higher epoch.
	StatusLeft Status = 2
)

// known reports whether s is a status the protocol defines. Anything else
// is malformed input: a record carrying it would be merged and reflooded like
// a departure, and refuted by nobody.
func (s Status) known() bool { return s == StatusJoined || s == StatusLeft }

// String returns a short mnemonic for the status.
func (s Status) String() string {
	switch s {
	case StatusJoined:
		return "joined"
	case StatusLeft:
		return "left"
	default:
		return "unknown"
	}
}

// Record is one member's epoch-versioned directory entry.
type Record struct {
	// ID is the member node.
	ID wire.NodeID
	// Epoch versions the record: each admission or departure of the node
	// bumps it, and merges keep the highest.
	Epoch uint32
	// Status is the member's state at this epoch.
	Status Status
}

// supersedes reports whether r wins a merge against cur: strictly higher
// epoch always wins; at equal epoch a departure beats an admission (a
// joined record can only be refuted at a higher epoch, which the
// self-defense rule provides for live nodes).
func (r Record) supersedes(cur Record) bool {
	if r.Epoch != cur.Epoch {
		return r.Epoch > cur.Epoch
	}
	return r.Status == StatusLeft && cur.Status == StatusJoined
}

// Directory is one node's replica of the overlay member list. Merging
// records via Apply is commutative, associative, and idempotent, so any
// gossip order converges every replica to the same fixed point. All
// methods must be called from the owning node's executor.
type Directory struct {
	// recs holds each node's record by ID; a zero Status means none. A walk
	// over it is in ascending ID order and spans the largest ID recorded,
	// and runs only on a change (a digest recompute, a full sync).
	recs wire.NodeTable[entry]
	// n counts records (joined and left).
	n int
	// version bumps on every accepted record; it keys the digest cache.
	version uint64
	// members counts records with StatusJoined.
	members int

	digest    uint64
	digestVer uint64
	digestOK  bool
}

// entry is a Record without its ID, which is its index in the table.
type entry struct {
	epoch  uint32
	status Status
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory { return &Directory{} }

// Len returns the number of records (joined and left).
func (d *Directory) Len() int { return d.n }

// NumMembers returns the number of joined members.
func (d *Directory) NumMembers() int { return d.members }

// Version returns a counter bumped on every accepted record.
func (d *Directory) Version() uint64 { return d.version }

// Get returns the record for id, if any.
func (d *Directory) Get(id wire.NodeID) (Record, bool) {
	e := d.recs.At(id)
	return Record{ID: id, Epoch: e.epoch, Status: e.status}, e.status != 0
}

// IsMember reports whether id is currently joined.
func (d *Directory) IsMember(id wire.NodeID) bool {
	return d.recs.At(id).status == StatusJoined
}

// Apply merges one record, keeping the winner under the epoch order, and
// reports whether the directory changed.
func (d *Directory) Apply(r Record) bool {
	if r.ID == 0 || !r.Status.known() {
		return false
	}
	cur, ok := d.Get(r.ID)
	if ok && !r.supersedes(cur) {
		return false
	}
	if !ok {
		d.n++
	} else if cur.Status == StatusJoined {
		d.members--
	}
	if r.Status == StatusJoined {
		d.members++
	}
	d.recs.Put(r.ID, entry{epoch: r.Epoch, status: r.Status})
	d.version++
	return true
}

// Each calls fn for every record in ascending ID order.
func (d *Directory) Each(fn func(Record)) {
	for id, e := range d.recs {
		if e.status != 0 {
			fn(Record{ID: wire.NodeID(id), Epoch: e.epoch, Status: e.status})
		}
	}
}

// Members appends the joined member IDs in ascending order to buf.
func (d *Directory) Members(buf []wire.NodeID) []wire.NodeID {
	for id, e := range d.recs {
		if e.status == StatusJoined {
			buf = append(buf, wire.NodeID(id))
		}
	}
	return buf
}

// TableBytes returns the memory of the record table.
func (d *Directory) TableBytes() int { return d.recs.Bytes() }

// Digest returns an order-insensitive FNV-1a fingerprint of the full
// record set. Two directories with equal digests hold the same records
// (modulo hash collision); the digest is cached and recomputed only when
// the directory changed, so steady-state anti-entropy probes are free.
func (d *Directory) Digest() uint64 {
	if d.digestOK && d.digestVer == d.version {
		return d.digest
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	d.Each(func(r Record) {
		h = (h ^ uint64(r.ID&0xff)) * prime
		h = (h ^ uint64(r.ID>>8)) * prime
		h = (h ^ uint64(r.Epoch&0xff)) * prime
		h = (h ^ uint64((r.Epoch>>8)&0xff)) * prime
		h = (h ^ uint64((r.Epoch>>16)&0xff)) * prime
		h = (h ^ uint64(r.Epoch>>24)) * prime
		h = (h ^ uint64(r.Status)) * prime
	})
	d.digest = h
	d.digestVer = d.version
	d.digestOK = true
	return h
}
