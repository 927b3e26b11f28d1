package linkstate

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// world wires Managers together through an in-test control fabric with
// per-link latency, link kill switches, and per-path kill switches for
// multihoming tests.
type world struct {
	t       *testing.T
	sched   *sim.Scheduler
	graph   *topology.Graph
	envs    map[wire.NodeID]*nodeEnv
	latency time.Duration
	// deadLinks drops every frame and LSA crossing the link.
	deadLinks map[wire.LinkID]bool
	// deadLSALinks drops only LSA traffic crossing the link (flood and
	// resync); hellos keep flowing. Models the brown-out where control
	// liveness survives but a specific flood is lost.
	deadLSALinks map[wire.LinkID]bool
	// deadPaths drops frames sent on a specific (link, path) pair.
	deadPaths map[pathKey]bool
	// pathCount is the number of underlay paths per link (default 1).
	pathCount int
}

type pathKey struct {
	link wire.LinkID
	path uint8
}

type nodeEnv struct {
	w           *world
	self        wire.NodeID
	mgr         *Manager
	curPath     map[wire.NodeID]uint8
	viewChanges int
	// originated, when set, sees every advertisement this node floods as
	// its origin, at the moment it floods it.
	originated func(*Advertisement)
}

func newWorld(t *testing.T, g *topology.Graph, cfg Config, pathCount int) *world {
	t.Helper()
	w := newQuietWorld(t, g, cfg, pathCount)
	for _, env := range w.envs {
		env.mgr.Start()
	}
	return w
}

// newQuietWorld builds the fabric without starting any manager: large-scale
// tests start only the managers whose active probing they need, while every
// other node still answers hellos and refloods LSAs passively.
func newQuietWorld(t *testing.T, g *topology.Graph, cfg Config, pathCount int) *world {
	t.Helper()
	w := &world{
		t:            t,
		sched:        sim.NewScheduler(77),
		graph:        g,
		envs:         make(map[wire.NodeID]*nodeEnv),
		latency:      10 * time.Millisecond,
		deadLinks:    make(map[wire.LinkID]bool),
		deadLSALinks: make(map[wire.LinkID]bool),
		deadPaths:    make(map[pathKey]bool),
		pathCount:    pathCount,
	}
	for _, n := range g.Nodes() {
		env := &nodeEnv{w: w, self: n, curPath: make(map[wire.NodeID]uint8)}
		env.mgr = NewManager(env, n, topology.NewView(g), cfg)
		w.envs[n] = env
		for _, lid := range g.Incident(n) {
			l, _ := g.Link(lid)
			peer, _ := l.Other(n)
			env.mgr.AddNeighbor(peer, lid)
		}
	}
	return w
}

func (w *world) linkBetween(a, b wire.NodeID) wire.LinkID {
	l, ok := w.graph.LinkBetween(a, b)
	if !ok {
		w.t.Fatalf("no link %v-%v", a, b)
	}
	return l.ID
}

func (e *nodeEnv) Clock() sim.Clock { return e.w.sched }

func (e *nodeEnv) SendControl(neighbor wire.NodeID, f *wire.Frame) {
	lid := e.w.linkBetween(e.self, neighbor)
	if e.w.deadLinks[lid] {
		return
	}
	if e.w.deadPaths[pathKey{link: lid, path: e.curPath[neighbor]}] {
		return
	}
	cp := *f
	e.w.sched.After(e.w.latency, func() {
		peer := e.w.envs[neighbor]
		peer.mgr.HandleControl(e.self, &cp)
	})
}

func (e *nodeEnv) FloodLSA(payload []byte, except wire.NodeID) {
	if e.originated != nil && except == 0 {
		adv, err := UnmarshalAdvertisement(payload)
		if err != nil {
			e.w.t.Fatalf("originated advertisement: %v", err)
		}
		e.originated(adv)
	}
	for _, lid := range e.w.graph.Incident(e.self) {
		l, _ := e.w.graph.Link(lid)
		peer, _ := l.Other(e.self)
		if peer == except {
			continue
		}
		if e.w.deadLinks[lid] || e.w.deadLSALinks[lid] {
			continue
		}
		if e.w.deadPaths[pathKey{link: lid, path: e.curPath[peer]}] {
			continue
		}
		data := append([]byte(nil), payload...)
		from := e.self
		e.w.sched.After(e.w.latency, func() {
			p := &wire.Packet{Type: wire.PTLinkState, Src: from, Payload: data}
			if err := e.w.envs[peer].mgr.HandleLSA(from, p); err != nil {
				e.w.t.Errorf("HandleLSA: %v", err)
			}
		})
	}
}

func (e *nodeEnv) SendLSA(neighbor wire.NodeID, payload []byte) {
	lid := e.w.linkBetween(e.self, neighbor)
	if e.w.deadLinks[lid] || e.w.deadLSALinks[lid] || e.w.deadPaths[pathKey{link: lid, path: e.curPath[neighbor]}] {
		return
	}
	data := append([]byte(nil), payload...)
	from := e.self
	e.w.sched.After(e.w.latency, func() {
		p := &wire.Packet{Type: wire.PTLinkState, Src: from, Payload: data}
		if err := e.w.envs[neighbor].mgr.HandleLSA(from, p); err != nil {
			e.w.t.Errorf("HandleLSA: %v", err)
		}
	})
}

func (e *nodeEnv) PathCount(wire.NodeID) int { return e.w.pathCount }

func (e *nodeEnv) SetPath(neighbor wire.NodeID, path uint8) {
	e.curPath[neighbor] = path
}

func (e *nodeEnv) ViewChanged() { e.viewChanges++ }

func chain3(t *testing.T) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	if _, err := g.AddLink(1, 2, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddLink(2, 3, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestHelloKeepsLinksUp(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 1)
	w.sched.RunFor(3 * time.Second)
	for n, env := range w.envs {
		for _, lid := range w.graph.Incident(n) {
			if !env.mgr.View().Usable(lid) {
				t.Fatalf("node %v sees link %d down on healthy network", n, lid)
			}
		}
	}
	if rtt := w.envs[1].mgr.neighbors.At(2).rtt; rtt != 20*time.Millisecond {
		t.Fatalf("RTT = %v, want 20ms", rtt)
	}
	if w.envs[1].mgr.Stats().DownDetections != 0 {
		t.Fatal("down detection on healthy network")
	}
}

func TestLinkFailureDetectedSubSecond(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 1)
	w.sched.RunFor(time.Second)
	lid := w.linkBetween(1, 2)
	failAt := w.sched.Now()
	w.deadLinks[lid] = true

	// Detection within HelloMiss × HelloInterval plus one interval slack.
	var detectedAt time.Duration
	for w.sched.Now() < failAt+2*time.Second {
		w.sched.RunFor(10 * time.Millisecond)
		if !w.envs[2].mgr.View().Usable(lid) {
			detectedAt = w.sched.Now()
			break
		}
	}
	if detectedAt == 0 {
		t.Fatal("failure never detected")
	}
	if d := detectedAt - failAt; d > 600*time.Millisecond {
		t.Fatalf("detection took %v, want sub-second (≈300ms)", d)
	}
	// The third node learns via flooding.
	w.sched.RunFor(time.Second)
	if w.envs[3].mgr.View().Usable(lid) {
		t.Fatal("node 3 never learned of remote link failure")
	}
	if w.envs[2].mgr.Stats().DownDetections != 1 {
		t.Fatalf("DownDetections = %d, want 1", w.envs[2].mgr.Stats().DownDetections)
	}
}

func TestLinkRecoveryDetected(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 1)
	lid := w.linkBetween(1, 2)
	w.sched.RunFor(time.Second)
	w.deadLinks[lid] = true
	w.sched.RunFor(2 * time.Second)
	if w.envs[3].mgr.View().Usable(lid) {
		t.Fatal("failure not propagated")
	}
	w.deadLinks[lid] = false
	w.sched.RunFor(4 * time.Second)
	for n := wire.NodeID(1); n <= 3; n++ {
		if !w.envs[n].mgr.View().Usable(lid) {
			t.Fatalf("node %v did not learn of recovery", n)
		}
	}
	if w.envs[2].mgr.Stats().UpDetections == 0 {
		t.Fatal("no up detection recorded")
	}
}

func TestMultihomingFailoverKeepsLinkUp(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 2)
	lid := w.linkBetween(1, 2)
	w.sched.RunFor(time.Second)
	// Kill path 0 in both directions; path 1 stays healthy.
	w.deadPaths[pathKey{link: lid, path: 0}] = true
	w.sched.RunFor(3 * time.Second)
	if !w.envs[1].mgr.View().Usable(lid) || !w.envs[2].mgr.View().Usable(lid) {
		t.Fatal("dual-homed link declared down despite healthy second path")
	}
	if w.envs[1].mgr.Stats().Failovers == 0 && w.envs[2].mgr.Stats().Failovers == 0 {
		t.Fatal("no failover recorded")
	}
	if w.envs[1].mgr.Stats().DownDetections+w.envs[2].mgr.Stats().DownDetections != 0 {
		t.Fatal("down detection despite multihoming")
	}
}

func TestAllPathsDeadDeclaresDown(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 2)
	lid := w.linkBetween(1, 2)
	w.sched.RunFor(time.Second)
	w.deadPaths[pathKey{link: lid, path: 0}] = true
	w.deadPaths[pathKey{link: lid, path: 1}] = true
	w.sched.RunFor(3 * time.Second)
	if w.envs[1].mgr.View().Usable(lid) {
		t.Fatal("link with all paths dead still up")
	}
}

func TestStaleLSAIgnored(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 1)
	w.sched.RunFor(time.Second)
	mgr3 := w.envs[3].mgr
	lid := w.linkBetween(1, 2)
	// Deliver a forged "down" advertisement with an old sequence.
	adv := Advertisement{Origin: 1, Seq: 1, Entries: []Entry{{Link: lid, Up: false}}}
	p := &wire.Packet{Type: wire.PTLinkState, Src: 1, Payload: adv.Marshal()}
	if err := mgr3.HandleLSA(2, p); err != nil {
		t.Fatalf("HandleLSA: %v", err)
	}
	if !mgr3.View().Usable(lid) {
		t.Fatal("stale sequence advertisement was applied")
	}
}

func TestNonEndpointLSARejected(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 1)
	lid12 := w.linkBetween(1, 2)
	// Node 3 advertises a link it is not an endpoint of: must be ignored.
	adv := Advertisement{Origin: 3, Seq: 1 << 30, Entries: []Entry{{Link: lid12, Up: false}}}
	p := &wire.Packet{Type: wire.PTLinkState, Src: 3, Payload: adv.Marshal()}
	if err := w.envs[1].mgr.HandleLSA(2, p); err != nil {
		t.Fatalf("HandleLSA: %v", err)
	}
	if !w.envs[1].mgr.View().Usable(lid12) {
		t.Fatal("non-endpoint advertisement was applied")
	}
}

func TestVersionAdvancesOnChange(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 1)
	w.sched.RunFor(500 * time.Millisecond)
	v0 := w.envs[2].mgr.View().Version()
	w.deadLinks[w.linkBetween(1, 2)] = true
	w.sched.RunFor(2 * time.Second)
	if w.envs[2].mgr.View().Version() == v0 {
		t.Fatal("version did not advance on link failure")
	}
}

func TestLossEstimation(t *testing.T) {
	cfg := Config{LossWindow: 40}
	w := newWorld(t, chain3(t), cfg, 1)
	// Drop ~30% of hello probes from 1→2 only.
	lid := w.linkBetween(1, 2)
	env1 := w.envs[1]
	origSend := 0
	_ = origSend
	r := rand.New(rand.NewSource(4))
	// Wrap by replacing deadPaths per frame is not possible; instead use
	// a stochastic kill on the path by toggling deadPaths each event.
	// Simpler: interpose on the scheduler via a custom env method is not
	// available, so simulate loss by toggling the dead flag around each
	// hello tick.
	stop := false
	var toggle func()
	toggle = func() {
		if stop {
			return
		}
		w.deadPaths[pathKey{link: lid, path: 0}] = r.Float64() < 0.30
		w.sched.After(env1.mgr.cfg.HelloInterval, toggle)
	}
	w.sched.After(0, toggle)
	w.sched.RunFor(30 * time.Second)
	stop = true
	st := env1.mgr.neighbors[2]
	if st.loss < 0.05 || st.loss > 0.30 {
		t.Fatalf("loss estimate %.3f, want around 0.15 (half of 30%% round-trip miss)", st.loss)
	}
}

func TestAdvertisementRoundTrip(t *testing.T) {
	adv := &Advertisement{
		Origin: 7,
		Seq:    123456,
		Entries: []Entry{
			{Link: 3, Up: true, Latency: 12345 * time.Microsecond, Loss: 0.0123},
			{Link: 250, Up: false, Latency: 50 * time.Millisecond, Loss: 1},
		},
	}
	got, err := UnmarshalAdvertisement(adv.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalAdvertisement: %v", err)
	}
	if !reflect.DeepEqual(adv, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", adv, got)
	}
}

func TestAdvertisementTruncated(t *testing.T) {
	adv := &Advertisement{Origin: 1, Seq: 2, Entries: []Entry{{Link: 1, Up: true}}}
	buf := adv.Marshal()
	for n := 0; n < len(buf); n++ {
		if _, err := UnmarshalAdvertisement(buf[:n]); err == nil {
			t.Fatalf("accepted %d/%d-byte prefix", n, len(buf))
		}
	}
}

func TestAdvertisementFuzzNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 1000; i++ {
		buf := make([]byte, r.Intn(100))
		r.Read(buf)
		_, _ = UnmarshalAdvertisement(buf)
	}
}

func TestStopCancelsTimers(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 1)
	w.sched.RunFor(time.Second)
	for _, env := range w.envs {
		env.mgr.Stop()
	}
	sent := w.envs[1].mgr.Stats().HellosSent
	w.sched.RunFor(5 * time.Second)
	if got := w.envs[1].mgr.Stats().HellosSent; got != sent {
		t.Fatalf("hellos kept flowing after Stop: %d → %d", sent, got)
	}
}

func TestLossFailoverRehomesDegradedLink(t *testing.T) {
	cfg := Config{LossWindow: 30, LossFailover: 0.15}
	w := newWorld(t, chain3(t), cfg, 2)
	lid := w.linkBetween(1, 2)
	w.sched.RunFor(time.Second)
	// Path 0 becomes a 40% brown-out; path 1 stays clean. Hellos mostly
	// survive, so only loss-threshold re-homing can move the link.
	r := rand.New(rand.NewSource(6))
	stop := false
	var toggle func()
	toggle = func() {
		if stop {
			return
		}
		w.deadPaths[pathKey{link: lid, path: 0}] = r.Float64() < 0.40
		w.sched.After(50*time.Millisecond, toggle)
	}
	w.sched.After(0, toggle)
	w.sched.RunFor(15 * time.Second)
	stop = true
	env1 := w.envs[1]
	if env1.mgr.Stats().Failovers == 0 && w.envs[2].mgr.Stats().Failovers == 0 {
		t.Fatal("no loss-driven failover despite 40% brown-out")
	}
	if !env1.mgr.NeighborUp(2) {
		t.Fatal("link declared down instead of re-homed")
	}
	// At least one endpoint moved off the degraded path.
	if env1.curPath[2] == 0 && w.envs[2].curPath[1] == 0 {
		t.Fatal("both endpoints still on the degraded path")
	}
}

func TestLossFailoverDisabledWithSinglePath(t *testing.T) {
	cfg := Config{LossWindow: 20, LossFailover: 0.15}
	w := newWorld(t, chain3(t), cfg, 1)
	lid := w.linkBetween(1, 2)
	r := rand.New(rand.NewSource(6))
	stop := false
	var toggle func()
	toggle = func() {
		if stop {
			return
		}
		w.deadPaths[pathKey{link: lid, path: 0}] = r.Float64() < 0.40
		w.sched.After(50*time.Millisecond, toggle)
	}
	w.sched.After(0, toggle)
	w.sched.RunFor(10 * time.Second)
	stop = true
	if w.envs[1].mgr.Stats().Failovers != 0 {
		t.Fatal("failover recorded on a single-path link")
	}
}

func TestResyncOnLinkRecovery(t *testing.T) {
	// Refresh is effectively off: only the recovery resync can repair a
	// partition-era divergence.
	cfg := Config{RefreshInterval: 10 * time.Minute}
	w := newWorld(t, chain3(t), cfg, 1)
	lid12 := w.linkBetween(1, 2)
	lid23 := w.linkBetween(2, 3)
	w.sched.RunFor(time.Second)

	// Partition node 1, then lose link 2-3 behind its back.
	w.deadLinks[lid12] = true
	w.sched.RunFor(time.Second)
	w.deadLinks[lid23] = true
	w.sched.RunFor(2 * time.Second)
	if w.envs[1].mgr.View().Usable(lid23) != true {
		t.Fatal("premise: partitioned node 1 must still believe 2-3 is up")
	}
	if w.envs[2].mgr.View().Usable(lid23) {
		t.Fatal("premise: node 2 must have detected 2-3 down")
	}

	// Heal the partition: node 2's recovery resync must teach node 1
	// about 2-3 without waiting for any refresh.
	w.deadLinks[lid12] = false
	w.sched.RunFor(3 * time.Second)
	if w.envs[1].mgr.View().Usable(lid23) {
		t.Fatal("node 1 never learned of 2-3 failure after partition healed")
	}
}

// TestHealthCountersTrackAdversity walks a dual-homed three-node line
// through every kind of event the manager counts and checks, phase by
// phase, that the counters owed to that event moved — and that a quiet
// world moved none of the distress counters. The closing loop ties the
// test to the struct: a counter added to Stats without a phase here fails.
func TestHealthCountersTrackAdversity(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 2)
	lid12 := w.linkBetween(1, 2)
	covered := make(map[string]bool)
	// phase runs the world for d and fails unless each named counter grew
	// on the given node meanwhile.
	phase := func(name string, d time.Duration, node wire.NodeID, fields ...string) {
		t.Helper()
		before := reflect.ValueOf(w.envs[node].mgr.Stats())
		w.sched.RunFor(d)
		after := reflect.ValueOf(w.envs[node].mgr.Stats())
		for _, f := range fields {
			covered[f] = true
			if b, a := before.FieldByName(f).Uint(), after.FieldByName(f).Uint(); a <= b {
				t.Fatalf("%s: node %d %s stayed at %d", name, node, f, a)
			}
		}
	}

	// Node 2 probes both neighbours, refreshes its own advertisement and
	// relays node 1's toward node 3.
	phase("quiet", 2*time.Second, 2, "HellosSent", "LSAsSent")
	quiet := w.envs[2].mgr.Stats()
	quiet.HellosSent, quiet.LSAsSent = 0, 0
	if quiet != (Stats{}) {
		t.Fatalf("quiet world shows distress: %+v", quiet)
	}
	if fs := w.envs[2].mgr.FloodStats(); fs.Flooded == 0 || fs.Resync != 0 {
		t.Fatalf("quiet world: node 2 flood counters %+v, want relayed advertisements and no resync", fs)
	}

	// One provider of 1-2 dies: the owner misses hellos and re-homes.
	w.deadPaths[pathKey{link: lid12, path: 0}] = true
	phase("path loss", 3*time.Second, 1, "HellosMissed", "Failovers")

	// The whole link dies: node 2 declares it down, reconverges and
	// originates a delta, which node 3 refloods.
	w.deadLinks[lid12] = true
	before3 := w.envs[3].mgr.Stats().DeltaLSAsForwarded
	phase("link down", 3*time.Second, 2, "HellosMissed", "DownDetections", "Reconvergences", "DeltaLSAsSent")
	if w.envs[3].mgr.Stats().DeltaLSAsForwarded == before3 {
		t.Fatal("link down: node 3 relayed node 2's delta but counted none")
	}
	covered["DeltaLSAsForwarded"] = true

	// The link heals: node 2 pushes what it retains to node 1, and discards
	// what node 1 pushes back — node 2's own advertisement and node 3's.
	w.deadLinks[lid12] = false
	delete(w.deadPaths, pathKey{link: lid12, path: 0})
	down := w.envs[2].mgr.FloodStats()
	phase("link up", 3*time.Second, 2, "UpDetections", "Reconvergences")
	if up := w.envs[2].mgr.FloodStats(); up.Resync == down.Resync || up.Stale == down.Stale {
		t.Fatalf("link up: node 2 flood counters %+v -> %+v, want resync and stale to grow", down, up)
	}

	// Node 3 stops admitting node 1: its next refresh is refused.
	w.envs[3].mgr.SetMemberCheck(func(id wire.NodeID) bool { return id != 1 })
	w.sched.RunFor(3 * time.Second)
	if w.envs[3].mgr.FloodStats().Refused == 0 {
		t.Fatal("non-member: node 3 refused none of node 1's advertisements")
	}

	for i, typ := 0, reflect.TypeOf(Stats{}); i < typ.NumField(); i++ {
		if !covered[typ.Field(i).Name] {
			t.Errorf("Stats.%s is moved by no phase of this test", typ.Field(i).Name)
		}
	}
}

// lastOriginated records on env the sequence number of each advertisement it
// floods as origin from now on, and returns where to read the latest.
func lastOriginated(env *nodeEnv) *uint32 {
	seq := new(uint32)
	env.originated = func(adv *Advertisement) { *seq = adv.Seq }
	return seq
}

func TestRestartFastForwardsOwnSeq(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 1)
	env2 := w.envs[2]
	seq := lastOriginated(env2)
	w.sched.RunFor(5 * time.Second) // refresh cycles push sequence numbers up
	oldSeq := *seq
	if oldSeq < 2 {
		t.Fatalf("precondition: last originated seq = %d, want refresh-driven growth", oldSeq)
	}

	// Crash-restart node 2 with total state loss: a fresh manager whose
	// sequence counter starts over while peers still hold the old one.
	env2.mgr.Stop()
	fresh := NewManager(env2, 2, topology.NewView(w.graph), Config{})
	for _, lid := range w.graph.Incident(wire.NodeID(2)) {
		l, _ := w.graph.Link(lid)
		peer, _ := l.Other(2)
		fresh.AddNeighbor(peer, lid)
	}
	env2.mgr = fresh
	fresh.Start()
	if *seq >= oldSeq {
		t.Fatalf("fresh manager started numbering at %d", *seq)
	}

	// A peer resyncs the reborn node with its own stale advertisement (a
	// pre-crash flood still circulating): the node must fast-forward past
	// it and re-originate, so peers accept its fresh state again.
	stale := Advertisement{Origin: 2, Seq: oldSeq}
	p := &wire.Packet{Type: wire.PTLinkState, Src: 1, Payload: stale.Marshal()}
	if err := fresh.HandleLSA(1, p); err != nil {
		t.Fatalf("HandleLSA: %v", err)
	}
	if *seq <= oldSeq {
		t.Fatalf("originated seq %d after stale echo, want > %d", *seq, oldSeq)
	}
	// The peer took the re-origination: a copy numbered just past the
	// pre-crash sequence is stale to it now.
	w.sched.RunFor(time.Second)
	mgr1 := w.envs[1].mgr
	before := mgr1.FloodStats().Stale
	p = &wire.Packet{Type: wire.PTLinkState, Src: 2, Payload: (&Advertisement{Origin: 2, Seq: oldSeq + 1}).Marshal()}
	if err := mgr1.HandleLSA(2, p); err != nil {
		t.Fatalf("HandleLSA: %v", err)
	}
	if mgr1.FloodStats().Stale != before+1 {
		t.Fatalf("peer still holds pre-crash seq %d: re-origination not accepted", oldSeq)
	}
}

func TestSteadyStateEchoDoesNotRefloodStorm(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 1)
	seq := lastOriginated(w.envs[2])
	w.sched.RunFor(3 * time.Second)
	m := w.envs[2].mgr
	sent, stale := m.Stats().LSAsSent, m.FloodStats().Stale
	// An echo of the node's CURRENT advertisement is the common case in a
	// flood with cycles; it must not trigger another origination, or every
	// flood would feed the next.
	echo := Advertisement{Origin: 2, Seq: *seq}
	p := &wire.Packet{Type: wire.PTLinkState, Src: 1, Payload: echo.Marshal()}
	if err := m.HandleLSA(1, p); err != nil {
		t.Fatalf("HandleLSA: %v", err)
	}
	if m.Stats().LSAsSent != sent {
		t.Fatal("steady-state echo triggered a re-origination")
	}
	if m.FloodStats().Stale != stale+1 {
		t.Fatal("steady-state echo not counted as stale")
	}
}

// TestHelloCarriesSessionEpoch is the regression test for the asymmetric
// link-session reset black hole: hellos must transport the sender's
// link-session epoch in the Seq upper bits so a peer that never saw a
// hello transition still learns the other side reset its endpoints, and
// restarts its own through the reset hook — without disturbing the path
// index carried in the low byte.
func TestHelloCarriesSessionEpoch(t *testing.T) {
	w := newWorld(t, chain3(t), Config{}, 2)
	resets := 0
	w.envs[2].mgr.SetOnSessionReset(func(n wire.NodeID) {
		if n == 1 {
			resets++
		}
	})
	w.sched.RunFor(time.Second)
	if resets != 0 || w.envs[2].mgr.neighbors[1].epoch != 0 {
		t.Fatalf("%d resets and epoch %d before any reset, want none and 0", resets, w.envs[2].mgr.neighbors[1].epoch)
	}
	// Simulate a one-sided reset on node 1: only its advertised epoch
	// changes; no hello transition happens anywhere.
	w.envs[1].mgr.neighbors[2].epoch = 7
	w.sched.RunFor(time.Second)
	if resets != 1 || w.envs[2].mgr.neighbors[1].epoch != 7 {
		t.Fatalf("after the peer's reset: %d resets and epoch %d, want 1 and 7", resets, w.envs[2].mgr.neighbors[1].epoch)
	}
	// The path index in the low byte must survive epoch stamping: node 1
	// owns link 1-2 (lower ID) and node 2 must still adopt its path.
	lid := w.linkBetween(1, 2)
	w.deadPaths[pathKey{link: lid, path: 0}] = true
	w.sched.RunFor(2 * time.Second)
	if !w.envs[2].mgr.View().Usable(lid) {
		t.Fatal("multihoming failover broken with epoch-stamped hellos")
	}
	if w.envs[2].curPath[1] != 1 {
		t.Fatalf("node 2 on path %d, want 1 (owner's choice via hello low byte)", w.envs[2].curPath[1])
	}
}

func TestAdvertisementDeltaRoundTrip(t *testing.T) {
	adv := &Advertisement{
		Origin: 9,
		Seq:    0xfffffff0,
		Delta:  true,
		Entries: []Entry{
			{Link: 42, Up: false, Latency: 7 * time.Millisecond, Loss: 0.5},
		},
	}
	got, err := UnmarshalAdvertisement(adv.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalAdvertisement: %v", err)
	}
	if !reflect.DeepEqual(adv, got) {
		t.Fatalf("delta round trip mismatch:\n in: %+v\nout: %+v", adv, got)
	}
}

// TestDownDetectionFloodsDeltaApplied disables the periodic refresh so the
// only way a remote node can learn of a failure is the delta flood the
// detecting endpoint originates.
func TestDownDetectionFloodsDeltaApplied(t *testing.T) {
	cfg := Config{RefreshInterval: 10 * time.Minute}
	w := newWorld(t, chain3(t), cfg, 1)
	lid12 := w.linkBetween(1, 2)
	w.sched.RunFor(time.Second)
	w.deadLinks[lid12] = true
	w.sched.RunFor(2 * time.Second)
	if w.envs[3].mgr.View().Usable(lid12) {
		t.Fatal("node 3 never learned of the failure (refresh disabled: only the delta could tell it)")
	}
	if got := w.envs[2].mgr.Stats().DeltaLSAsSent; got == 0 {
		t.Fatal("down detection did not originate a delta advertisement")
	}
	if w.envs[3].mgr.Stats().DeltaLSAsForwarded == 0 {
		t.Fatal("node 3 applied the change but counted no delta flood")
	}
}

// TestDeltaDropFullRefreshFallback loses a delta in a brown-out — LSA
// traffic toward node 3 is dropped while hellos keep the 2-3 link alive —
// and asserts the periodic full refresh repairs the divergence once the
// flood path heals.
func TestDeltaDropFullRefreshFallback(t *testing.T) {
	cfg := Config{RefreshInterval: time.Second}
	w := newWorld(t, chain3(t), cfg, 1)
	lid12 := w.linkBetween(1, 2)
	lid23 := w.linkBetween(2, 3)
	w.sched.RunFor(time.Second)

	w.deadLSALinks[lid23] = true
	w.deadLinks[lid12] = true
	w.sched.RunFor(1500 * time.Millisecond)
	if w.envs[2].mgr.Stats().DeltaLSAsSent == 0 {
		t.Fatal("down detection did not originate a delta advertisement")
	}
	if !w.envs[3].mgr.View().Usable(lid12) {
		t.Fatal("premise: node 3 must still believe 1-2 is up — its delta was dropped")
	}

	// The flood path heals. Nothing re-floods the lost delta; only the
	// anti-entropy full refresh can repair node 3, within one refresh
	// interval plus propagation slack.
	w.deadLSALinks[lid23] = false
	w.sched.RunFor(2 * time.Second)
	if w.envs[3].mgr.View().Usable(lid12) {
		t.Fatal("full-refresh fallback never repaired the dropped delta")
	}
}

// ringGraph builds an n-node ring: the sparsest connected topology, so a
// single link failure forces every node to reroute the long way around.
func ringGraph(t *testing.T, n int) *topology.Graph {
	t.Helper()
	g := topology.NewGraph()
	for i := 1; i < n; i++ {
		if _, err := g.AddLink(wire.NodeID(i), wire.NodeID(i+1), time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.AddLink(wire.NodeID(n), 1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRingReconvergesAt1kNodes drives a single-link failure and recovery
// through a 1000-node ring. Only the two endpoints of the churned link run
// active hello probing; the other 998 managers participate passively,
// answering hellos and reflooding LSAs — which is exactly the work the
// flood imposes on bystanders. With the refresh disabled, agreement across
// all 1000 views within the convergence bound can only come from the delta
// floods (failure) and the recovery full flood.
func TestRingReconvergesAt1kNodes(t *testing.T) {
	const n = 1000
	cfg := Config{RefreshInterval: 10 * time.Minute}
	w := newQuietWorld(t, ringGraph(t, n), cfg, 1)
	w.latency = 100 * time.Microsecond
	lid := w.linkBetween(1, 2)
	w.envs[1].mgr.Start()
	w.envs[2].mgr.Start()
	w.sched.RunFor(time.Second)

	w.deadLinks[lid] = true
	w.sched.RunFor(3500 * time.Millisecond)
	for id := wire.NodeID(1); id <= n; id++ {
		if w.envs[id].mgr.View().Usable(lid) {
			t.Fatalf("node %d still believes link 1-2 is up 3.5s after failure", id)
		}
	}
	if w.envs[1].mgr.Stats().DeltaLSAsSent == 0 && w.envs[2].mgr.Stats().DeltaLSAsSent == 0 {
		t.Fatal("no delta advertisement originated for the single-link failure")
	}
	if w.envs[n/2].mgr.Stats().DeltaLSAsForwarded == 0 {
		t.Fatal("antipodal node never reflooded a delta")
	}

	w.deadLinks[lid] = false
	w.sched.RunFor(3500 * time.Millisecond)
	for id := wire.NodeID(1); id <= n; id++ {
		if !w.envs[id].mgr.View().Usable(lid) {
			t.Fatalf("node %d never learned of the recovery", id)
		}
	}
}

// TestOwnerViewIsAdvertisedView: the owner of a link measures it on every
// hello-ack but routes, like everyone else, on what it last advertised.
// RTT and loss drifting under the advertisement thresholds move the
// measurements and neither the view entry nor any version; a drift over the
// threshold moves the entry in the very step that floods it; and a full
// refresh carries the entry as it stands.
func TestOwnerViewIsAdvertisedView(t *testing.T) {
	cfg := Config{HelloInterval: 50 * time.Millisecond, LossWindow: 50, RefreshInterval: time.Second}
	w := newWorld(t, chain3(t), cfg, 1)
	lid := w.linkBetween(1, 2)
	env, m := w.envs[1], w.envs[1].mgr
	// flooded is the owned link's entry in node 1's latest advertisement.
	var flooded Entry
	fulls, deltas := 0, 0
	env.originated = func(adv *Advertisement) {
		if adv.Delta {
			deltas++
		} else {
			fulls++
		}
		for _, e := range adv.Entries {
			if e.Link != lid {
				continue
			}
			flooded = e
			// Flooding and moving the view are one step.
			if st := m.View().State[lid]; st.Latency != e.Latency || st.Loss != e.Loss || st.Up != e.Up {
				t.Fatalf("advertising %+v while the view holds %+v", e, st)
			}
		}
	}
	// step runs the world in 1 ms steps; between any two, the view entry is
	// the last flooded one.
	step := func(d time.Duration) {
		t.Helper()
		for end := w.sched.Now() + d; w.sched.Now() < end; {
			w.sched.RunFor(time.Millisecond)
			if st := m.View().State[lid]; st.Latency != flooded.Latency || st.Loss != flooded.Loss {
				t.Fatalf("at %v the view holds %+v, the last advertisement said %+v", w.sched.Now(), st, flooded)
			}
		}
	}
	w.sched.RunFor(1500 * time.Millisecond)
	if fulls == 0 {
		t.Fatal("no refresh seen")
	}
	held, viewVer := m.View().State[lid], m.View().Version()

	// +10 % RTT and one lost probe in fifty (1 % loss, advertised at 2 %).
	w.latency = 11 * time.Millisecond
	step(time.Second)
	w.deadLinks[lid] = true
	step(cfg.HelloInterval)
	w.deadLinks[lid] = false
	fulls = 0
	step(4 * time.Second)
	st := m.neighbors[2]
	if st.rtt < 21*time.Millisecond || st.loss == 0 {
		t.Fatalf("premise: measurements should have moved, rtt %v loss %v", st.rtt, st.loss)
	}
	if got := m.View().State[lid]; got != held {
		t.Fatalf("sub-threshold drift moved the view entry %+v → %+v", held, got)
	}
	if m.View().Version() != viewVer || deltas != 0 {
		t.Fatalf("sub-threshold drift: view version %d → %d, %d deltas", viewVer, m.View().Version(), deltas)
	}
	if fulls < 3 {
		t.Fatalf("%d refreshes in 4 s", fulls)
	}

	// +40 %: one delta, and the view moves with it.
	w.latency = 14 * time.Millisecond
	step(3 * time.Second)
	if deltas == 0 || m.View().State[lid].Latency < 12500*time.Microsecond {
		t.Fatalf("a 40 %% RTT rise advertised %d deltas, view latency %v", deltas, m.View().State[lid].Latency)
	}
	if m.View().Version() == viewVer {
		t.Fatal("an advertised change did not move the view version")
	}
	// Everyone holds what the owner holds.
	for id, e := range w.envs {
		if got := e.mgr.View().State[lid]; got != m.View().State[lid] {
			t.Fatalf("node %d holds %+v, the owner %+v", id, got, m.View().State[lid])
		}
	}
}
