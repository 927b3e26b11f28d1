package membership

import (
	"math/rand/v2"
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// --- directory -------------------------------------------------------------

// TestDirectoryMergeOrder covers the record order: higher epoch wins,
// departure beats admission at equal epoch, and losers leave the replica
// untouched.
func TestDirectoryMergeOrder(t *testing.T) {
	d := NewDirectory()
	if !d.Apply(Record{ID: 1, Epoch: 1, Status: StatusJoined}) {
		t.Fatal("fresh record rejected")
	}
	if d.Apply(Record{ID: 1, Epoch: 1, Status: StatusJoined}) {
		t.Fatal("duplicate record accepted")
	}
	if !d.Apply(Record{ID: 1, Epoch: 1, Status: StatusLeft}) {
		t.Fatal("equal-epoch departure must beat admission")
	}
	if d.Apply(Record{ID: 1, Epoch: 1, Status: StatusJoined}) {
		t.Fatal("equal-epoch admission must not beat departure")
	}
	if !d.Apply(Record{ID: 1, Epoch: 2, Status: StatusJoined}) {
		t.Fatal("higher-epoch admission rejected")
	}
	if d.Apply(Record{ID: 1, Epoch: 1, Status: StatusLeft}) {
		t.Fatal("stale departure accepted")
	}
	if !d.IsMember(1) {
		t.Fatal("node 1 should be joined at epoch 2")
	}
	if d.Apply(Record{ID: 0, Epoch: 5, Status: StatusJoined}) || d.Apply(Record{ID: 2, Epoch: 1}) {
		t.Fatal("malformed records accepted")
	}
}

// TestDirectoryConvergence is the semilattice property behind
// anti-entropy: applying the same record multiset in any order yields the
// same replica, members, and digest.
func TestDirectoryConvergence(t *testing.T) {
	recs := []Record{
		{ID: 1, Epoch: 1, Status: StatusJoined},
		{ID: 1, Epoch: 2, Status: StatusLeft},
		{ID: 1, Epoch: 3, Status: StatusJoined},
		{ID: 2, Epoch: 1, Status: StatusJoined},
		{ID: 2, Epoch: 1, Status: StatusLeft},
		{ID: 3, Epoch: 7, Status: StatusJoined},
		{ID: 4, Epoch: 2, Status: StatusLeft},
	}
	ref := NewDirectory()
	for _, r := range recs {
		ref.Apply(r)
	}
	rng := rand.New(rand.NewPCG(99, 7))
	for trial := 0; trial < 50; trial++ {
		d := NewDirectory()
		perm := rng.Perm(len(recs))
		for _, i := range perm {
			d.Apply(recs[i])
		}
		// Re-apply a random half: idempotence.
		for _, i := range perm[:len(perm)/2] {
			d.Apply(recs[i])
		}
		if d.Digest() != ref.Digest() {
			t.Fatalf("trial %d: digest %x != %x after order %v", trial, d.Digest(), ref.Digest(), perm)
		}
		if d.NumMembers() != ref.NumMembers() || d.Len() != ref.Len() {
			t.Fatalf("trial %d: members %d/%d != %d/%d", trial,
				d.NumMembers(), d.Len(), ref.NumMembers(), ref.Len())
		}
	}
	want := []wire.NodeID{1, 3}
	got := ref.Members(nil)
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("members %v, want %v", got, want)
	}
}

// --- codec -----------------------------------------------------------------

// TestCodecRoundTrip covers every message encoder against the decode
// paths HandlePacket uses.
func TestCodecRoundTrip(t *testing.T) {
	in := []Record{
		{ID: 7, Epoch: 0x01020304, Status: StatusJoined},
		{ID: 0x0102, Epoch: 9, Status: StatusLeft},
	}
	buf := AppendUpdate(nil, in...)
	if buf[0] != msgUpdate {
		t.Fatalf("kind %d", buf[0])
	}
	recs, err := decodeRecords(buf[3:], len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range in {
		if got := decodeRecord(recs[i*recLen:]); got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := decodeRecords(buf[3:], len(in)+1); err == nil {
		t.Fatal("short record region accepted")
	}

	d := NewDirectory()
	for _, r := range in {
		d.Apply(r)
	}
	sync := AppendSync(nil, d)
	if sync[0] != msgSync || len(sync) != 11+d.Len()*recLen {
		t.Fatalf("sync layout: kind=%d len=%d", sync[0], len(sync))
	}
	dig := AppendDigest(nil, d.Len(), d.Digest())
	if dig[0] != msgDigest || len(dig) != 11 {
		t.Fatalf("digest layout: kind=%d len=%d", dig[0], len(dig))
	}
	jr := AppendJoinReq(nil, 0x0304)
	if jr[0] != msgJoinReq || len(jr) != 3 || jr[1] != 3 || jr[2] != 4 {
		t.Fatalf("join-req layout: % x", jr)
	}
}

// --- detector --------------------------------------------------------------

// legalWorld builds a random connected topology with every endpoint
// joined — a legal fixed point by construction.
func legalWorld(rng *rand.Rand, n int) (*topology.View, *Directory) {
	g := topology.NewGraph()
	d := NewDirectory()
	for i := 1; i <= n; i++ {
		g.AddNode(wire.NodeID(i))
		d.Apply(Record{ID: wire.NodeID(i), Epoch: uint32(1 + rng.IntN(5)), Status: StatusJoined})
	}
	for i := 2; i <= n; i++ {
		peer := 1 + rng.IntN(i-1)
		if _, err := g.AddLink(wire.NodeID(i), wire.NodeID(peer), time.Millisecond); err != nil {
			panic(err)
		}
	}
	v := topology.NewView(g)
	for id := range v.State {
		v.SetUp(wire.LinkID(id), rng.IntN(4) > 0) // some links legitimately down
	}
	return v, d
}

// TestDetectorNoFalsePositives is the detector's soundness property: on
// randomized legal topologies — every link joins two current members —
// it must flag nothing, whatever the up/down pattern.
func TestDetectorNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewPCG(4242, 1))
	for trial := 0; trial < 200; trial++ {
		v, d := legalWorld(rng, 2+rng.IntN(30))
		if fs := Detect(v, d, nil); len(fs) != 0 {
			t.Fatalf("trial %d: %d findings on a legal topology: %+v", trial, len(fs), fs)
		}
	}
}

// TestDetectorFlagsStaleLinks is the matching completeness case: every up
// link touching a departed member is flagged, exactly once, naming the
// departed endpoint.
func TestDetectorFlagsStaleLinks(t *testing.T) {
	rng := rand.New(rand.NewPCG(777, 2))
	for trial := 0; trial < 100; trial++ {
		v, d := legalWorld(rng, 4+rng.IntN(20))
		gone := wire.NodeID(1 + rng.IntN(d.NumMembers()))
		rec, _ := d.Get(gone)
		d.Apply(Record{ID: gone, Epoch: rec.Epoch + 1, Status: StatusLeft})
		want := 0
		for id := range v.State {
			if !v.State[id].Up {
				continue
			}
			l, _ := v.G.Link(wire.LinkID(id))
			if l.A == gone || l.B == gone {
				want++
			}
		}
		fs := Detect(v, d, nil)
		if len(fs) != want {
			t.Fatalf("trial %d: %d findings, want %d", trial, len(fs), want)
		}
		for _, f := range fs {
			if f.Kind != FindingStaleLink || f.Node != gone {
				t.Fatalf("trial %d: bad finding %+v", trial, f)
			}
		}
	}
}

// TestDetectorEmptyDirectorySilent: a joiner before its first sync has no
// basis to dispute its bootstrap view.
func TestDetectorEmptyDirectorySilent(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	v, _ := legalWorld(rng, 8)
	if fs := Detect(v, NewDirectory(), nil); len(fs) != 0 {
		t.Fatalf("empty directory produced findings: %+v", fs)
	}
}

// --- manager fabric --------------------------------------------------------

// fabric wires managers over a virtual-time message bus with a fixed
// per-hop delay, so protocol exchanges run deterministically.
type fabric struct {
	sched *sim.Scheduler
	mgrs  map[wire.NodeID]*Manager
	envs  map[wire.NodeID]*fabricEnv
}

type fabricEnv struct {
	f    *fabric
	self wire.NodeID
	nbrs []wire.NodeID
}

func (e *fabricEnv) Clock() sim.Clock         { return e.f.sched }
func (e *fabricEnv) Neighbors() []wire.NodeID { return e.nbrs }
func (e *fabricEnv) Send(to wire.NodeID, p []byte) {
	cp := append([]byte(nil), p...)
	from := e.self
	e.f.sched.After(time.Millisecond, func() {
		if m := e.f.mgrs[to]; m != nil {
			_ = m.HandlePacket(from, &wire.Packet{Payload: cp})
		}
	})
}
func (e *fabricEnv) Flood(p []byte, except wire.NodeID) {
	for _, nb := range e.nbrs {
		if nb != except {
			e.Send(nb, p)
		}
	}
}

// newFabric builds one manager per node over the given adjacency, all
// sharing cfg (Seed included).
func newFabric(seed uint64, adj map[wire.NodeID][]wire.NodeID, cfg Config) *fabric {
	f := &fabric{
		sched: sim.NewScheduler(seed),
		mgrs:  make(map[wire.NodeID]*Manager),
		envs:  make(map[wire.NodeID]*fabricEnv),
	}
	for id, nbrs := range adj {
		env := &fabricEnv{f: f, self: id, nbrs: nbrs}
		f.envs[id] = env
		f.mgrs[id] = NewManager(env, id, cfg)
	}
	return f
}

func (f *fabric) startAll() {
	for _, m := range f.mgrs {
		m.Start()
	}
}

func (f *fabric) converged() (uint64, bool) {
	var ref uint64
	first := true
	for _, m := range f.mgrs {
		d := m.Directory().Digest()
		if first {
			ref, first = d, false
		} else if d != ref {
			return 0, false
		}
	}
	return ref, true
}

func line4() map[wire.NodeID][]wire.NodeID {
	return map[wire.NodeID][]wire.NodeID{
		1: {2}, 2: {1, 3}, 3: {2, 4}, 4: {3},
	}
}

// TestJoinAdmission covers the join handshake end to end: a blank joiner
// requests admission through a contact, learns the full directory from
// the sync reply, and the admission floods to every replica.
func TestJoinAdmission(t *testing.T) {
	cfg := Config{SweepInterval: 50 * time.Millisecond, JoinRetry: 20 * time.Millisecond,
		Seed: []wire.NodeID{1, 2, 3}}
	adj := map[wire.NodeID][]wire.NodeID{1: {2}, 2: {1, 3}, 3: {2}}
	f := newFabric(1, adj, cfg)
	// Node 4 joins through contact 3 with an empty directory.
	joiner := NewManager(f.addJoiner(4, []wire.NodeID{3}), 4,
		Config{SweepInterval: cfg.SweepInterval, JoinRetry: cfg.JoinRetry})
	f.mgrs[4] = joiner
	f.envs[3].nbrs = []wire.NodeID{2, 4}
	f.startAll()
	joiner.Join(3)
	f.sched.RunFor(2 * time.Second)
	for id, m := range f.mgrs {
		if !m.IsMember(4) {
			t.Fatalf("node %d does not see the joiner as a member", id)
		}
	}
	if !joiner.Joined() {
		t.Fatal("joiner does not consider itself admitted")
	}
	if joiner.Directory().NumMembers() != 4 {
		t.Fatalf("joiner learned %d members, want 4", joiner.Directory().NumMembers())
	}
	if _, ok := f.converged(); !ok {
		t.Fatal("replicas did not converge after the join")
	}
}

// addJoiner registers a fresh env for a node that was not part of the
// fabric's initial adjacency.
func (f *fabric) addJoiner(self wire.NodeID, nbrs []wire.NodeID) *fabricEnv {
	env := &fabricEnv{f: f, self: self, nbrs: nbrs}
	f.envs[self] = env
	return env
}

// TestGracefulLeave covers departure: the leaver's record advances to
// Left everywhere, and its own replica never refutes it.
func TestGracefulLeave(t *testing.T) {
	cfg := Config{SweepInterval: 50 * time.Millisecond, Seed: []wire.NodeID{1, 2, 3, 4}}
	f := newFabric(2, line4(), cfg)
	f.startAll()
	f.mgrs[4].Leave()
	f.sched.RunFor(2 * time.Second)
	for id, m := range f.mgrs {
		if m.IsMember(4) {
			t.Fatalf("node %d still counts the leaver as a member", id)
		}
		if m.Directory().NumMembers() != 3 {
			t.Fatalf("node %d sees %d members, want 3", id, m.Directory().NumMembers())
		}
	}
}

// TestSelfDefenseRefutation covers the corrector's self-defense rule: a
// corrupted departure record planted at a remote replica propagates, the
// victim refutes at a higher epoch, and the fleet converges back to full
// membership — from the message path and from the sweep path both.
func TestSelfDefenseRefutation(t *testing.T) {
	cfg := Config{SweepInterval: 50 * time.Millisecond, Seed: []wire.NodeID{1, 2, 3, 4}}
	f := newFabric(3, line4(), cfg)
	f.startAll()
	// Remote plant: node 1 believes node 4 left.
	f.mgrs[1].InjectRecord(Record{ID: 4, Epoch: 2, Status: StatusLeft})
	// Local plant: node 3's own record says it left (sweep path).
	f.mgrs[3].InjectRecord(Record{ID: 3, Epoch: 9, Status: StatusLeft})
	f.sched.RunFor(3 * time.Second)
	for id, m := range f.mgrs {
		if m.Directory().NumMembers() != 4 {
			t.Fatalf("node %d sees %d members after refutation, want 4", id, m.Directory().NumMembers())
		}
	}
	if r, _ := f.mgrs[1].Directory().Get(4); r.Status != StatusJoined || r.Epoch < 3 {
		t.Fatalf("refutation did not supersede the planted record: %+v", r)
	}
	if r, _ := f.mgrs[2].Directory().Get(3); r.Status != StatusJoined || r.Epoch < 10 {
		t.Fatalf("sweep-path refutation did not spread: %+v", r)
	}
	if f.mgrs[3].Stats().Corrections == 0 {
		t.Fatal("victim recorded no correction")
	}
}

// TestSyncConvergesArbitraryDivergence is the anti-entropy property: two
// replicas initialized with arbitrary disjoint record sets converge to
// the identical supremum within a bounded number of sweep rounds.
func TestSyncConvergesArbitraryDivergence(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 20; trial++ {
		cfg := Config{SweepInterval: 50 * time.Millisecond}
		f := newFabric(uint64(trial), map[wire.NodeID][]wire.NodeID{1: {2}, 2: {1}}, cfg)
		for id := wire.NodeID(1); id <= 2; id++ {
			for n := 0; n < 1+rng.IntN(8); n++ {
				f.mgrs[id].InjectRecord(Record{
					ID:     wire.NodeID(3 + rng.IntN(10)),
					Epoch:  uint32(1 + rng.IntN(4)),
					Status: Status(1 + rng.IntN(2)),
				})
			}
			// Both replicas know themselves and each other.
			f.mgrs[id].InjectRecord(Record{ID: 1, Epoch: 1, Status: StatusJoined})
			f.mgrs[id].InjectRecord(Record{ID: 2, Epoch: 1, Status: StatusJoined})
		}
		f.startAll()
		f.sched.RunFor(time.Second)
		if _, ok := f.converged(); !ok {
			t.Fatalf("trial %d: replicas did not converge: %x vs %x", trial,
				f.mgrs[1].Directory().Digest(), f.mgrs[2].Directory().Digest())
		}
	}
}

// --- fixed point and allocation budget -------------------------------------

// quietEnv counts messages by kind without keeping them, so fixed-point
// sweeps can be audited allocation-free.
type quietEnv struct {
	clock    sim.Clock
	nbrs     []wire.NodeID
	digests  int
	syncs    int
	updates  int
	joinReqs int
}

func (e *quietEnv) Clock() sim.Clock         { return e.clock }
func (e *quietEnv) Neighbors() []wire.NodeID { return e.nbrs }
func (e *quietEnv) Flood(p []byte, _ wire.NodeID) {
	e.count(p)
}
func (e *quietEnv) Send(_ wire.NodeID, p []byte) {
	e.count(p)
}
func (e *quietEnv) count(p []byte) {
	switch p[0] {
	case msgDigest:
		e.digests++
	case msgSync:
		e.syncs++
	case msgUpdate:
		e.updates++
	case msgJoinReq:
		e.joinReqs++
	}
}

// TestSweepSilentAtFixedPoint: at a legitimate fixed point a sweep sends
// only digest probes — no syncs, updates, corrections, or inconsistency
// counts.
func TestSweepSilentAtFixedPoint(t *testing.T) {
	env := &quietEnv{clock: sim.NewScheduler(1), nbrs: []wire.NodeID{2, 3}}
	m := NewManager(env, 1, Config{Seed: []wire.NodeID{1, 2, 3}})
	g := topology.NewGraph()
	for i := 1; i <= 3; i++ {
		g.AddNode(wire.NodeID(i))
	}
	if _, err := g.AddLink(1, 2, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(2, 3, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	v := topology.NewView(g)
	for id := range v.State {
		v.SetUp(wire.LinkID(id), true)
	}
	m.SetView(v)
	for i := 0; i < 10; i++ {
		m.Sweep()
	}
	if env.syncs != 0 || env.updates != 0 {
		t.Fatalf("fixed-point sweeps sent %d syncs, %d updates", env.syncs, env.updates)
	}
	if env.digests != 10*len(env.nbrs) {
		t.Fatalf("expected %d digest probes, got %d", 10*len(env.nbrs), env.digests)
	}
	s := m.Stats()
	if s.Inconsistencies != 0 || s.Corrections != 0 {
		t.Fatalf("fixed-point sweeps flagged %d inconsistencies, %d corrections",
			s.Inconsistencies, s.Corrections)
	}
}

// TestMembershipSweepAllocBudget is the CI alloc gate: a steady-state
// detector/corrector sweep — predicates, digest probes, cached
// fingerprint — must allocate nothing.
func TestMembershipSweepAllocBudget(t *testing.T) {
	env := &quietEnv{clock: sim.NewScheduler(1), nbrs: []wire.NodeID{2, 3}}
	m := NewManager(env, 1, Config{Seed: []wire.NodeID{1, 2, 3}})
	g := topology.NewGraph()
	for i := 1; i <= 3; i++ {
		g.AddNode(wire.NodeID(i))
	}
	if _, err := g.AddLink(1, 2, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	v := topology.NewView(g)
	v.SetUp(v.G.Links()[0].ID, true)
	m.SetView(v)
	m.SetOnReconcile(func() int { return 0 })
	m.Sweep() // warm the scratch buffers and digest cache
	if allocs := testing.AllocsPerRun(200, m.Sweep); allocs != 0 {
		t.Fatalf("steady-state sweep allocates %.1f allocs/op, budget is 0", allocs)
	}
}
