package experiments

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"sonet/internal/membership"
	"sonet/internal/metrics"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// EXP-CHURN fabric parameters: a 256-node chord-augmented ring (degree 4,
// ~16-hop diameter) of bare membership managers exchanging protocol
// messages over a synthetic 1 ms-per-hop message bus in virtual time. The
// fabric isolates the directory protocol — join admission, departure
// floods, digest anti-entropy, detector/corrector sweeps — from the rest
// of the stack, which is what lets the experiment run at fleet sizes the
// full-world chaos campaigns cannot.
const (
	churnFleet    = 256
	churnChord    = 16
	churnHop      = time.Millisecond
	churnSweep    = 100 * time.Millisecond
	churnWindow   = 5 * time.Second
	churnDeadline = 30 * time.Second
	// churnBoundSweeps is the asserted stabilization bound: once churn
	// stops (or from a corrupted initial state), the fleet must reach the
	// legal fixed point within this many detector rounds.
	churnBoundSweeps = 20
)

// churnFabric wires one membership manager per node over a virtual-time
// bus. Departed nodes drop inbound messages; a rejoin replaces the
// manager with a fresh incarnation that runs the admission handshake.
type churnFabric struct {
	sched *sim.Scheduler
	mgrs  []*membership.Manager
	alive []bool
	// base accumulates counters of dead incarnations so fleet totals
	// survive manager replacement.
	base membership.Stats
	// applied counts churn events that actually fired; lastEvent is when
	// the final one did — the clock convergence is measured from.
	applied   int
	lastEvent time.Duration
}

type churnEnv struct {
	f    *churnFabric
	self wire.NodeID
	nbrs []wire.NodeID
}

func (e *churnEnv) Clock() sim.Clock { return e.f.sched }

// Neighbors models the overlay's self-repairing adjacency: each node
// links to the nearest *alive* node in each ring and chord direction, the
// way the full stack re-establishes links around departures. Without this
// a node whose four designed neighbors all happen to be down would lose
// its anti-entropy partners and stop converging — a topology-maintenance
// failure, not a directory-protocol one.
func (e *churnEnv) Neighbors() []wire.NodeID {
	e.nbrs = e.nbrs[:0]
	i := int(e.self - 1)
	n := len(e.f.alive)
	for _, step := range [4]int{1, n - 1, churnChord, n - churnChord} {
		for j := (i + step) % n; j != i; j = (j + step) % n {
			if e.f.alive[j] {
				id := wire.NodeID(j + 1)
				dup := false
				for _, have := range e.nbrs {
					if have == id {
						dup = true
						break
					}
				}
				if !dup {
					e.nbrs = append(e.nbrs, id)
				}
				break
			}
		}
	}
	sort.Slice(e.nbrs, func(a, b int) bool { return e.nbrs[a] < e.nbrs[b] })
	return e.nbrs
}

func (e *churnEnv) Send(to wire.NodeID, p []byte) {
	cp := append([]byte(nil), p...)
	from := e.self
	e.f.sched.After(churnHop, func() {
		if e.f.alive[to-1] {
			_ = e.f.mgrs[to-1].HandlePacket(from, &wire.Packet{Payload: cp})
		}
	})
}

func (e *churnEnv) Flood(p []byte, except wire.NodeID) {
	for _, nb := range e.Neighbors() {
		if nb != except {
			e.Send(nb, p)
		}
	}
}

// newChurnFabric builds the fleet with every node seeded as an epoch-1
// member and starts the sweeps.
func newChurnFabric(seed uint64, n int) *churnFabric {
	f := &churnFabric{
		sched: sim.NewScheduler(seed),
		mgrs:  make([]*membership.Manager, n),
		alive: make([]bool, n),
	}
	seedIDs := make([]wire.NodeID, n)
	for i := range seedIDs {
		seedIDs[i] = wire.NodeID(i + 1)
	}
	for i := 0; i < n; i++ {
		id := wire.NodeID(i + 1)
		f.mgrs[i] = membership.NewManager(&churnEnv{f: f, self: id}, id,
			membership.Config{SweepInterval: churnSweep, Seed: seedIDs})
		f.alive[i] = true
	}
	for _, m := range f.mgrs {
		m.Start()
	}
	return f
}

func (f *churnFabric) leave(id wire.NodeID) {
	m := f.mgrs[id-1]
	m.Leave()
	f.base = f.base.Merge(m.Stats())
	m.Stop()
	f.alive[id-1] = false
	f.applied++
	f.lastEvent = f.sched.Now()
}

func (f *churnFabric) rejoin(id, contact wire.NodeID) {
	m := membership.NewManager(&churnEnv{f: f, self: id}, id,
		membership.Config{SweepInterval: churnSweep})
	f.mgrs[id-1] = m
	f.alive[id-1] = true
	m.Start()
	m.Join(contact)
	f.applied++
	f.lastEvent = f.sched.Now()
}

// aliveCount returns how many nodes are currently up.
func (f *churnFabric) aliveCount() int {
	n := 0
	for _, a := range f.alive {
		if a {
			n++
		}
	}
	return n
}

// converged reports whether every live replica agrees on the same digest
// and counts exactly the live nodes as members.
func (f *churnFabric) converged() bool {
	want := f.aliveCount()
	var ref uint64
	first := true
	for i, m := range f.mgrs {
		if !f.alive[i] {
			continue
		}
		d := m.Directory()
		if d.NumMembers() != want || !m.Joined() {
			return false
		}
		if first {
			ref, first = d.Digest(), false
		} else if d.Digest() != ref {
			return false
		}
	}
	return true
}

// settle steps virtual time in fine slices until the fleet converges,
// returning the time since the reference point and whether it made the
// deadline.
func (f *churnFabric) settle(since time.Duration) (time.Duration, bool) {
	start := f.sched.Now()
	for f.sched.Now()-start < churnDeadline {
		if f.converged() {
			return f.sched.Now() - since, true
		}
		f.sched.RunFor(churnSweep / 10)
	}
	return f.sched.Now() - since, f.converged()
}

// stats returns fleet-aggregate membership counters, dead incarnations
// included.
func (f *churnFabric) stats() membership.Stats {
	agg := f.base
	for i, m := range f.mgrs {
		if f.alive[i] {
			agg = agg.Merge(m.Stats())
		}
	}
	return agg
}

// Churn is EXP-CHURN: dynamic membership and self-stabilization at fleet
// scale. Part one drives graceful leave/rejoin churn at increasing event
// rates and measures how long after the churn window the 256-replica
// directory fleet takes to reconverge. Part two corrupts a growing
// fraction of replicas with false departure records (the adversarial
// initial states of the stabilization claim) and measures the
// detector/corrector rounds the self-defense refutation needs to restore
// full membership everywhere.
func Churn(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-CHURN",
		Title: "Dynamic membership: convergence under churn and adversarial state",
		PaperClaim: "the overlay admits and releases nodes at runtime and its " +
			"control plane self-stabilizes: from any churn burst or corrupted " +
			"replica state, detector/corrector rounds restore a consistent " +
			"member view within a bounded number of sweeps",
		Table: metrics.NewTable("churn rate", "events", "converge", "sweeps", "inconsistencies", "corrections"),
	}
	shape := true

	// Part 1: convergence time vs churn rate. Convergence is measured
	// from the last applied event to the first instant every live replica
	// agrees on the live member set; the counters span the whole
	// campaign, so they show how much detector/corrector work the churn
	// itself generated.
	for _, rate := range []int{4, 16, 64} {
		f := newChurnFabric(seed, churnFleet)
		f.sched.RunFor(time.Second) // reach the initial fixed point
		base := f.stats()
		rng := rand.New(rand.NewPCG(seed, uint64(rate)))
		events := rate * int(churnWindow/time.Second)
		for e := 0; e < events; e++ {
			at := time.Duration(rng.Int64N(int64(churnWindow)))
			// Node 1 stays up as the stable rejoin contact.
			victim := wire.NodeID(2 + rng.IntN(churnFleet-1))
			f.sched.After(at, func() {
				switch {
				case !f.alive[victim-1]:
					f.rejoin(victim, 1)
				case f.mgrs[victim-1].Joined():
					f.leave(victim)
				default:
					// The victim is mid-admission: a graceful leave needs an
					// admitted identity to retire, so this event is skipped —
					// exactly as a real operator cannot drain a node that has
					// not finished joining.
				}
			})
		}
		f.sched.RunFor(churnWindow)
		conv, ok := f.settle(f.lastEvent)
		after := f.stats()
		rounds := int((conv + churnSweep - 1) / churnSweep)
		r.Table.AddRow(fmt.Sprintf("%d/s", rate), f.applied, conv, rounds,
			after.Inconsistencies-base.Inconsistencies,
			after.Corrections-base.Corrections)
		if !ok || rounds > churnBoundSweeps {
			shape = false
			r.addFinding("rate %d/s: fleet did not stabilize within %d sweeps (took %v, ok=%v)",
				rate, churnBoundSweeps, conv, ok)
		}
	}

	// Part 2: convergence time vs adversarial initial state. K replicas
	// are seeded with false departure records for live members; the
	// victims' self-defense refutations must restore full membership.
	adv := metrics.NewTable("corrupted replicas", "planted records", "converge", "sweeps", "refutations")
	for _, k := range []int{16, 64, churnFleet} {
		f := newChurnFabric(seed+uint64(k), churnFleet)
		f.sched.RunFor(time.Second)
		rng := rand.New(rand.NewPCG(seed, uint64(k)))
		planted := 0
		for _, ri := range rng.Perm(churnFleet)[:k] {
			m := f.mgrs[ri]
			for j := 0; j < 4; j++ {
				victim := wire.NodeID(1 + rng.IntN(churnFleet))
				rec, _ := m.Directory().Get(victim)
				if m.InjectRecord(membership.Record{
					ID: victim, Epoch: rec.Epoch + 1, Status: membership.StatusLeft,
				}) {
					planted++
				}
			}
		}
		before := f.stats()
		conv, ok := f.settle(f.sched.Now())
		after := f.stats()
		rounds := int((conv + churnSweep - 1) / churnSweep)
		adv.AddRow(k, planted, conv, rounds, after.Corrections-before.Corrections)
		if !ok || rounds > churnBoundSweeps {
			shape = false
			r.addFinding("%d corrupted replicas: fleet did not stabilize within %d sweeps (took %v, ok=%v)",
				k, churnBoundSweeps, conv, ok)
		}
	}
	r.Extra = append(r.Extra, adv)

	r.addFinding("%d-node fleet, degree-4 chord ring, %v sweeps: every churn rate and "+
		"every corrupted-state fraction restabilized within %d detector rounds",
		churnFleet, churnSweep, churnBoundSweeps)
	r.ShapeHolds = shape
	return r
}
