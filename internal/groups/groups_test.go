package groups

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sonet/internal/wire"
)

// fabric connects managers with immediate synchronous flooding over a
// clique, which suffices for membership logic tests (ordering and timing
// are exercised at the node level).
type fabric struct {
	envs map[wire.NodeID]*fenv
}

type fenv struct {
	f       *fabric
	self    wire.NodeID
	mgr     *Manager
	changes int
	// announced counts this node's own announcements and lastSeq is the
	// sequence number of the latest, read off the flooded payload.
	announced int
	lastSeq   uint32
}

func newFabric(nodes ...wire.NodeID) *fabric {
	f := &fabric{envs: make(map[wire.NodeID]*fenv)}
	for _, n := range nodes {
		env := &fenv{f: f, self: n}
		env.mgr = NewManager(env, n)
		f.envs[n] = env
	}
	return f
}

func (e *fenv) FloodGroupState(payload []byte, except wire.NodeID) {
	if except == 0 {
		_, seq, err := peekAnnouncement(payload)
		if err != nil {
			panic(err)
		}
		e.announced, e.lastSeq = e.announced+1, seq
	}
	for peer, env := range e.f.envs {
		if peer == e.self || peer == except {
			continue
		}
		p := &wire.Packet{Type: wire.PTGroupState, Src: e.self, Payload: append([]byte(nil), payload...)}
		if err := env.mgr.HandleAnnouncement(e.self, p); err != nil {
			panic(err)
		}
	}
}

func (e *fenv) SendGroupState(peer wire.NodeID, payload []byte) {
	p := &wire.Packet{Type: wire.PTGroupState, Src: e.self, Payload: append([]byte(nil), payload...)}
	if env, ok := e.f.envs[peer]; ok {
		if err := env.mgr.HandleAnnouncement(e.self, p); err != nil {
			panic(err)
		}
	}
}

func (e *fenv) GroupsChanged() { e.changes++ }

func TestJoinPropagatesToAllNodes(t *testing.T) {
	f := newFabric(1, 2, 3)
	f.envs[2].mgr.Join(100)
	for n, env := range f.envs {
		members := env.mgr.Members(100)
		if len(members) != 1 || members[0] != 2 {
			t.Fatalf("node %v sees members %v, want [2]", n, members)
		}
	}
}

func TestJoinRefcounting(t *testing.T) {
	f := newFabric(1, 2)
	m := f.envs[1].mgr
	m.Join(5)
	m.Join(5)
	m.Leave(5)
	if !m.LocalMember(5) {
		t.Fatal("lost membership with one client remaining")
	}
	if got := f.envs[2].mgr.Members(5); len(got) != 1 {
		t.Fatalf("peer sees %v, want [1]", got)
	}
	m.Leave(5)
	if m.LocalMember(5) {
		t.Fatal("membership survives last leave")
	}
	if got := f.envs[2].mgr.Members(5); len(got) != 0 {
		t.Fatalf("peer sees %v after leave, want []", got)
	}
}

func TestLeaveUnknownGroupIsNoop(t *testing.T) {
	f := newFabric(1)
	f.envs[1].mgr.Leave(42)
	if f.envs[1].changes != 0 {
		t.Fatal("leave of unknown group changed state")
	}
}

func TestMembersSorted(t *testing.T) {
	f := newFabric(1, 2, 3, 4)
	f.envs[3].mgr.Join(7)
	f.envs[1].mgr.Join(7)
	f.envs[4].mgr.Join(7)
	got := f.envs[2].mgr.Members(7)
	want := []wire.NodeID{1, 3, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Members = %v, want %v", got, want)
	}
}

func TestStaleAnnouncementIgnored(t *testing.T) {
	f := newFabric(1, 2)
	f.envs[1].mgr.Join(9) // seq 1 from origin 1
	f.envs[1].mgr.Join(8) // seq 2
	// Replay an old empty announcement with seq 1.
	old := Announcement{Origin: 1, Seq: 1}
	p := &wire.Packet{Type: wire.PTGroupState, Payload: old.Marshal()}
	if err := f.envs[2].mgr.HandleAnnouncement(1, p); err != nil {
		t.Fatalf("HandleAnnouncement: %v", err)
	}
	if got := f.envs[2].mgr.Members(9); len(got) != 1 {
		t.Fatalf("stale announcement wiped membership: %v", got)
	}
}

func TestFullStateReconciliation(t *testing.T) {
	f := newFabric(1, 2)
	m1 := f.envs[1].mgr
	m1.Join(1)
	m1.Join(2)
	m1.Leave(1)
	m2 := f.envs[2].mgr
	if got := m2.Members(1); len(got) != 0 {
		t.Fatalf("group 1 members = %v, want []", got)
	}
	if got := m2.Members(2); len(got) != 1 {
		t.Fatalf("group 2 members = %v, want [1]", got)
	}
}

func TestVersionAdvances(t *testing.T) {
	f := newFabric(1, 2)
	v0 := f.envs[2].mgr.Version()
	f.envs[1].mgr.Join(3)
	if f.envs[2].mgr.Version() == v0 {
		t.Fatal("version unchanged after remote join")
	}
}

func TestRefreshRepairsLostState(t *testing.T) {
	f := newFabric(1, 2)
	// Simulate a lost announcement by applying state directly to a fresh
	// manager pair: node 2 missed node 1's join.
	lonely := newFabric(1, 2)
	lonely.envs[1].mgr.local[77] = 1
	lonely.envs[1].mgr.setMemberRaw(77, 1, true)
	if got := lonely.envs[2].mgr.Members(77); len(got) != 0 {
		t.Fatalf("premise broken: %v", got)
	}
	lonely.envs[1].mgr.Refresh()
	if got := lonely.envs[2].mgr.Members(77); len(got) != 1 {
		t.Fatalf("refresh did not repair: %v", got)
	}
	_ = f
}

func TestAnnouncementRoundTrip(t *testing.T) {
	a := &Announcement{Origin: 3, Seq: 99, Groups: []wire.GroupID{1, 5, 0xffffffff}}
	got, err := UnmarshalAnnouncement(a.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalAnnouncement: %v", err)
	}
	if !reflect.DeepEqual(a, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", a, got)
	}
	empty := &Announcement{Origin: 1, Seq: 1, Groups: []wire.GroupID{}}
	got, err = UnmarshalAnnouncement(empty.Marshal())
	if err != nil {
		t.Fatalf("UnmarshalAnnouncement(empty): %v", err)
	}
	if got.Origin != 1 || len(got.Groups) != 0 {
		t.Fatalf("empty round trip = %+v", got)
	}
}

func TestAnnouncementTruncatedAndFuzz(t *testing.T) {
	a := &Announcement{Origin: 3, Seq: 99, Groups: []wire.GroupID{1, 2}}
	buf := a.Marshal()
	for n := 0; n < len(buf); n++ {
		if _, err := UnmarshalAnnouncement(buf[:n]); err == nil {
			t.Fatalf("accepted %d/%d-byte prefix", n, len(buf))
		}
	}
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 1000; i++ {
		junk := make([]byte, r.Intn(64))
		r.Read(junk)
		_, _ = UnmarshalAnnouncement(junk)
	}
}

func TestOwnAnnouncementIgnored(t *testing.T) {
	f := newFabric(1, 2)
	a := Announcement{Origin: 1, Seq: 100, Groups: []wire.GroupID{4}}
	p := &wire.Packet{Type: wire.PTGroupState, Payload: a.Marshal()}
	if err := f.envs[1].mgr.HandleAnnouncement(2, p); err != nil {
		t.Fatalf("HandleAnnouncement: %v", err)
	}
	if f.envs[1].mgr.LocalMember(4) {
		t.Fatal("own reflected announcement created local membership")
	}
	if got := f.envs[1].mgr.Members(4); len(got) != 0 {
		t.Fatalf("reflected announcement applied: %v", got)
	}
}

func TestRestartFastForwardsAnnouncementSeq(t *testing.T) {
	f := newFabric(1, 2, 3)
	f.envs[2].mgr.Join(7)
	for i := 0; i < 5; i++ {
		f.envs[2].mgr.Refresh() // push node 2's sequence number up
	}
	env2 := f.envs[2]
	oldSeq := env2.lastSeq

	// Crash-restart node 2 with state loss: fresh manager, counter reset,
	// and a re-join of its group.
	fresh := NewManager(env2, 2)
	env2.mgr = fresh
	fresh.Join(7)
	if env2.lastSeq >= oldSeq {
		t.Fatalf("fresh manager started numbering at %d", env2.lastSeq)
	}
	// Peers ignore the reborn node's low-seq announcements: they still see
	// the pre-crash membership under the old high sequence number... until
	// a stale self-origin echo reaches node 2 and fast-forwards it.
	stale := Announcement{Origin: 2, Seq: oldSeq, Groups: []wire.GroupID{7, 9}}
	p := &wire.Packet{Type: wire.PTGroupState, Src: 1, Payload: stale.Marshal()}
	if err := fresh.HandleAnnouncement(1, p); err != nil {
		t.Fatalf("HandleAnnouncement: %v", err)
	}
	if env2.lastSeq <= oldSeq {
		t.Fatalf("announced seq %d after stale echo, want > %d", env2.lastSeq, oldSeq)
	}
	// The fast-forwarded re-announcement must have superseded the stale
	// state everywhere: group 9 (pre-crash only) gone, group 7 present.
	for n, env := range f.envs {
		if got := env.mgr.Members(9); len(got) != 0 {
			t.Fatalf("node %v still sees stale group 9 members %v", n, got)
		}
		if got := env.mgr.Members(7); len(got) != 1 || got[0] != 2 {
			t.Fatalf("node %v sees group 7 members %v, want [2]", n, got)
		}
	}
	// The steady-state echo (the sequence just announced) must not
	// re-announce; it counts as a stale copy.
	announced, stale0 := env2.announced, fresh.Stats().Stale
	echo := Announcement{Origin: 2, Seq: env2.lastSeq, Groups: []wire.GroupID{7}}
	p = &wire.Packet{Type: wire.PTGroupState, Src: 1, Payload: echo.Marshal()}
	if err := fresh.HandleAnnouncement(1, p); err != nil {
		t.Fatalf("HandleAnnouncement echo: %v", err)
	}
	if env2.announced != announced || fresh.Stats().Stale != stale0+1 {
		t.Fatalf("steady-state echo: %d announcements (want %d), %d stale (want %d)",
			env2.announced, announced, fresh.Stats().Stale, stale0+1)
	}
}

// TestRemoteSetsTrackAnnouncements feeds one manager seeded announcements
// from three origins whose group lists arrive unsorted and with repeats —
// nothing on the wire promises otherwise — and checks after each one that
// the origin is a member of exactly the groups it last announced, that the
// version moved exactly when some membership did, and that the two counters
// split the traffic: the walk over two sorted slices in applyRemote against
// plain sets.
func TestRemoteSetsTrackAnnouncements(t *testing.T) {
	f := newFabric(1)
	m := f.envs[1].mgr
	r := rand.New(rand.NewSource(5))
	latest := map[wire.NodeID]map[wire.GroupID]bool{}
	seq := map[wire.NodeID]uint32{}
	var fresh, stale uint64
	for i := 0; i < 2000; i++ {
		origin := wire.NodeID(2 + r.Intn(3))
		a := Announcement{Origin: origin, Seq: seq[origin] + uint32(r.Intn(3))}
		for n := r.Intn(6); n > 0; n-- {
			a.Groups = append(a.Groups, wire.GroupID(1+r.Intn(8)))
		}
		before, moved := m.Version(), false
		if last, known := seq[origin]; !known || a.Seq > last {
			fresh++
			seq[origin] = a.Seq
			set := map[wire.GroupID]bool{}
			for _, g := range a.Groups {
				set[g] = true
			}
			for g := wire.GroupID(1); g <= 8; g++ {
				moved = moved || set[g] != latest[origin][g]
			}
			latest[origin] = set
		} else {
			stale++
		}
		if err := m.HandleAnnouncement(origin, &wire.Packet{Payload: a.Marshal()}); err != nil {
			t.Fatal(err)
		}
		if (m.Version() != before) != moved {
			t.Fatalf("step %d: membership moved %v, version %d → %d", i, moved, before, m.Version())
		}
		for g := wire.GroupID(1); g <= 8; g++ {
			var want []wire.NodeID
			for o := wire.NodeID(2); o <= 4; o++ {
				if latest[o][g] {
					want = append(want, o)
				}
			}
			if got := m.Members(g); !slices.Equal(got, want) {
				t.Fatalf("step %d: group %d members %v, want %v", i, g, got, want)
			}
		}
	}
	if st := m.Stats(); st.Flooded != fresh || st.Stale != stale || st.Resync != 0 {
		t.Fatalf("stats %+v, want %d flooded and %d stale", st, fresh, stale)
	}
}

// TestPurgeOrigin: forgetting a rejoined origin drops only its numbering —
// its memberships stand until it announces again, and a restarted sequence
// is then news — while forgetting a departed one drops its memberships too,
// with one change notification, or none when it had no memberships.
func TestPurgeOrigin(t *testing.T) {
	f := newFabric(1, 2, 3)
	f.envs[2].mgr.Join(7)
	f.envs[2].mgr.Join(8)
	f.envs[3].mgr.Join(8)
	env := f.envs[1]
	m := env.mgr

	changes, version := env.changes, m.Version()
	m.PurgeOrigin(2, false)
	if got := m.Members(7); len(got) != 1 || got[0] != 2 {
		t.Fatalf("rejoined origin's membership dropped: %v", got)
	}
	if env.changes != changes || m.Version() != version {
		t.Fatal("forgetting a numbering changed group state")
	}
	restarted := Announcement{Origin: 2, Seq: 1, Groups: []wire.GroupID{7}}
	p := &wire.Packet{Type: wire.PTGroupState, Payload: restarted.Marshal()}
	if err := m.HandleAnnouncement(2, p); err != nil {
		t.Fatalf("HandleAnnouncement: %v", err)
	}
	if got := m.Members(8); len(got) != 1 || got[0] != 3 {
		t.Fatalf("restarted numbering not accepted: group 8 has %v, want [3]", got)
	}

	changes, version = env.changes, m.Version()
	m.PurgeOrigin(2, true)
	if got := m.Members(7); len(got) != 0 {
		t.Fatalf("departed origin still a member: %v", got)
	}
	if got := m.Members(8); len(got) != 1 || got[0] != 3 {
		t.Fatalf("group 8 has %v after node 2 departed, want [3]", got)
	}
	if env.changes != changes+1 || m.Version() != version+1 {
		t.Fatalf("departure notified %d changes, version moved %d", env.changes-changes, m.Version()-version)
	}
	m.PurgeOrigin(2, true)
	m.PurgeOrigin(9, true)
	if env.changes != changes+1 {
		t.Fatal("forgetting an origin without memberships notified a change")
	}
}

// floodSink is a groups.Env that keeps the last flooded payload by copy
// and, when reenter is set, announces again from inside the first flood —
// what a synchronous env does when a flood.Reborn echo comes straight
// back.
type floodSink struct {
	mgr     *Manager
	last    []byte
	reenter bool
	// outer is the payload of the re-entered flood as it read before the
	// inner announcement, and after is the same bytes read after it.
	outer, after []byte
}

func (s *floodSink) FloodGroupState(payload []byte, _ wire.NodeID) {
	s.last = append(s.last[:0], payload...)
	if s.reenter {
		s.reenter = false
		s.outer = append([]byte(nil), payload...)
		s.mgr.Refresh()
		s.after = append([]byte(nil), payload...)
	}
}

func (s *floodSink) SendGroupState(wire.NodeID, []byte) {}
func (s *floodSink) GroupsChanged()                     {}

// TestAnnounceAllocBudget holds a warmed Refresh at 0 allocations (`make
// bench-guard`): the sorted group list and the payload are built in
// storage the manager owns, and the payload still carries the full,
// sorted membership under a new sequence number each time.
func TestAnnounceAllocBudget(t *testing.T) {
	s := &floodSink{}
	s.mgr = NewManager(s, 4)
	for _, g := range []wire.GroupID{90, 3, 41, 7} {
		s.mgr.Join(g)
	}
	s.mgr.Refresh()
	if allocs := testing.AllocsPerRun(100, s.mgr.Refresh); allocs != 0 {
		t.Fatalf("warmed Refresh allocates %.1f/op, want 0", allocs)
	}
	a, err := UnmarshalAnnouncement(s.last)
	if err != nil {
		t.Fatal(err)
	}
	if a.Origin != 4 || a.Seq != 4+1+101 || !slices.Equal(a.Groups, []wire.GroupID{3, 7, 41, 90}) {
		t.Fatalf("last announcement %+v, want origin 4, seq 106, groups [3 7 41 90]", a)
	}
}

// TestAnnounceReentryKeepsPayload announces from inside an announcement's
// own flood: the inner announcement must leave the outer payload intact
// while it is still being flooded, and go out under the next number.
func TestAnnounceReentryKeepsPayload(t *testing.T) {
	s := &floodSink{}
	s.mgr = NewManager(s, 4)
	s.mgr.Join(5)
	s.reenter = true
	s.mgr.Join(6)
	if !slices.Equal(s.outer, s.after) {
		t.Fatalf("outer payload %x rewritten to %x by the inner announcement", s.outer, s.after)
	}
	outer, err := UnmarshalAnnouncement(s.outer)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := UnmarshalAnnouncement(s.last)
	if err != nil {
		t.Fatal(err)
	}
	if inner.Seq != outer.Seq+1 || !slices.Equal(outer.Groups, inner.Groups) {
		t.Fatalf("outer %+v, inner %+v: want the same groups under the next number", outer, inner)
	}
	// The manager's own storage is usable again once the flood returned.
	s.mgr.Refresh()
	if a, err := UnmarshalAnnouncement(s.last); err != nil || a.Seq != inner.Seq+1 {
		t.Fatalf("after re-entry: %+v, %v", a, err)
	}
}
