package node

import (
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sonet/internal/groups"
	"sonet/internal/itmsg"
	"sonet/internal/linkstate"
	"sonet/internal/membership"
	"sonet/internal/routing"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// rigShards is the shard count of the sharded-node rig: 2 unless
// SONET_DAEMON_SHARDS overrides it (make test-race re-runs at 4).
func rigShards() int {
	if n, err := strconv.Atoi(os.Getenv("SONET_DAEMON_SHARDS")); err == nil && n > 1 {
		return n
	}
	return 2
}

// shardRig is one sharded node on real loops over a capturing
// ShardUnderlay. The node sits at the hub of a star: neighbors a1 and b1
// are homed on shard 1, c0 and d0 on shard 0, and far hangs behind d0.
// Every shard's clock is a scheduler nobody runs, so time stands at zero
// and the frames the node emits are byte-for-byte reproducible.
type shardRig struct {
	t     *testing.T
	loops *sim.ShardedLoop
	n     *Node
	keys  map[wire.NodeID]*itmsg.Keyring

	self, a1, b1, c0, d0, far wire.NodeID

	mu     sync.Mutex
	egress []string
	local  []string
}

// Send and SendOn record data-packet frames ("neighbor:frame bytes") and
// skip the control plane's own chatter (hellos, LSA and group floods).
func (r *shardRig) Send(neighbor wire.NodeID, path uint8, data []byte) {
	r.SendOn(0, neighbor, path, data)
}

func (r *shardRig) SendOn(_ int, neighbor wire.NodeID, _ uint8, data []byte) {
	f, _, err := wire.UnmarshalFrame(data)
	if err != nil || f.Kind != wire.FData || f.Packet == nil || f.Packet.Type != wire.PTData {
		return
	}
	r.mu.Lock()
	r.egress = append(r.egress, fmt.Sprintf("%v:%x", neighbor, data))
	r.mu.Unlock()
}

func (r *shardRig) PathCount(wire.NodeID) int { return 1 }

func newShardRig(t *testing.T, mutate func(*shardRig, *Config)) *shardRig {
	t.Helper()
	nshard := rigShards()
	r := &shardRig{t: t, self: 1}
	var homed [2][]wire.NodeID
	for id := wire.NodeID(2); len(homed[0]) < 3 || len(homed[1]) < 2; id++ {
		if h := wire.HomeShard(id, nshard); h < 2 {
			homed[h] = append(homed[h], id)
		}
	}
	r.c0, r.d0, r.far = homed[0][0], homed[0][1], homed[0][2]
	r.a1, r.b1 = homed[1][0], homed[1][1]
	g := topology.NewGraph()
	for _, l := range [][2]wire.NodeID{{r.self, r.a1}, {r.self, r.b1}, {r.self, r.c0}, {r.self, r.d0}, {r.d0, r.far}} {
		if _, err := g.AddLink(l[0], l[1], time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	r.loops = sim.NewShardedLoop(nshard)
	t.Cleanup(r.loops.Close)
	clocks := make([]sim.Clock, nshard)
	for i := range clocks {
		clocks[i] = sim.NewScheduler(1)
	}
	cfg := Config{
		ID: r.self, Clock: clocks[0], Underlay: r, Graph: g,
		Metric:    topology.LatencyMetric,
		LinkState: linkstate.Config{HelloInterval: time.Hour},
	}
	if mutate != nil {
		mutate(r, &cfg)
	}
	// A sharded node is built over its own id alone and learns its links
	// once the plane has grown, the way a daemon applies its config.
	design := cfg.Graph
	cfg.Graph = topology.NewGraph()
	cfg.Graph.AddNode(r.self)
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.n = n
	n.SetDeliver(func(p *wire.Packet) {
		b, err := p.Marshal()
		if err != nil {
			t.Error(err)
		}
		r.mu.Lock()
		r.local = append(r.local, fmt.Sprintf("%x", b))
		r.mu.Unlock()
	})
	n.DataPlane().Grow(r.loops, clocks)
	if got := n.DataPlane().NumShards(); got != nshard {
		t.Fatalf("plane has %d shards, want %d", got, nshard)
	}
	r.on(0, func() {
		for _, l := range design.Links() {
			if err := n.LearnLink(l.A, l.B, l.Latency); err != nil {
				t.Error(err)
			}
		}
		n.Start()
	})
	return r
}

// withKeyring authenticates the overlay: the node under test gets its
// keyring and the rig keeps every neighbor's for MACing injected frames.
func withKeyring(r *shardRig, cfg *Config) {
	all := cfg.Graph.Nodes()
	r.keys = make(map[wire.NodeID]*itmsg.Keyring)
	for _, id := range all {
		r.keys[id] = itmsg.NewDeterministicKeyring(id, all, []byte("parity"))
	}
	cfg.Keyring = r.keys[cfg.ID]
}

// on runs fn on shard's loop and waits for it.
func (r *shardRig) on(shard int, fn func()) {
	done := make(chan struct{})
	r.loops.PostTo(shard, func() { fn(); close(done) })
	<-done
}

// settle waits until every cross-shard chain an injection can start
// (arrival → control → egress home, at most three loops deep) has run.
func (r *shardRig) settle() {
	for round := 0; round < 4; round++ {
		for i := 0; i < r.loops.NumShards(); i++ {
			r.on(i, func() {})
		}
	}
}

// inject delivers one frame from a neighbor on shard's loop, as the
// underlay would, and waits for the node to finish with it.
func (r *shardRig) inject(shard int, from wire.NodeID, f *wire.Frame) {
	r.t.Helper()
	if r.keys != nil {
		if err := r.keys[from].MacFrame(f, r.self); err != nil {
			r.t.Fatal(err)
		}
	}
	data, err := f.Marshal()
	if err != nil {
		r.t.Fatal(err)
	}
	r.on(shard, func() { r.n.DataPlane().HandleUnderlay(shard, from, data) })
	r.settle()
}

// dataFrame wraps a data packet in a best-effort frame.
func dataFrame(p wire.Packet) *wire.Frame {
	p.Type = wire.PTData
	if p.TTL == 0 {
		p.TTL = 8
	}
	return &wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FData, Packet: &p}
}

// controlFrame wraps a control payload in a best-effort frame, the way
// Node.sendControl does.
func controlFrame(t wire.PacketType, src wire.NodeID, payload []byte) *wire.Frame {
	return &wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FData, Packet: &wire.Packet{
		Type: t, Route: wire.RouteFlood, TTL: 8, Src: src, Payload: payload,
	}}
}

// outcome is everything observable about how a node handled a run of
// packets: what it transmitted to whom, what it delivered locally, and
// its counters merged over every shard.
type outcome struct {
	Egress []string
	Local  []string
	Stats  Stats
}

func (r *shardRig) outcome() outcome {
	var st Stats
	r.on(0, func() { st = r.n.Stats() })
	st = st.Merge(r.n.DataPlane().Stats())
	r.mu.Lock()
	defer r.mu.Unlock()
	sort.Strings(r.egress)
	sort.Strings(r.local)
	return outcome{Egress: r.egress, Local: r.local, Stats: st}
}

type arrival struct {
	from  wire.NodeID
	frame *wire.Frame
}

// TestShardDecisionParity runs the same packets through the one engine
// twice — entering on shard 0, which asks the live routing engine, and
// entering on shard 1, which asks the published snapshot — and requires
// the same transmissions, the same local deliveries and the same merged
// counters. Every arrival comes from a neighbor homed on shard 1, so both
// entry points are legitimate: shard 0 serves any neighbor.
func TestShardDecisionParity(t *testing.T) {
	const group = wire.GroupID(7)
	payload := []byte("parity payload")
	// joinGroup gives the group a local member here and remote members at
	// c0, b1 and far, learned from their flooded announcements.
	joinGroup := func(r *shardRig) {
		r.on(0, func() { r.n.Groups().Join(group) })
		for _, m := range []wire.NodeID{r.c0, r.b1, r.far} {
			ann := groups.Announcement{Origin: m, Seq: 1, Groups: []wire.GroupID{group}}
			from := m
			if m == r.far {
				from = r.d0
			}
			r.inject(0, from, controlFrame(wire.PTGroupState, m, ann.Marshal()))
		}
	}
	multicast := func(r *shardRig) []arrival {
		return []arrival{{r.a1, dataFrame(wire.Packet{
			Route: wire.RouteMulticast, Src: r.a1, Group: group, FlowSeq: 1, Payload: payload,
		})}}
	}
	cases := []struct {
		name     string
		mutate   func(*shardRig, *Config)
		setup    func(*shardRig)
		arrivals func(*shardRig) []arrival
		// egress and local are the expected transmission and delivery
		// counts; want is the expected merged counters.
		egress, local int
		want          Stats
		// check, when set, inspects the rig after the shard-1 run.
		check func(*testing.T, *shardRig)
	}{
		{
			name: "unicast transit",
			arrivals: func(r *shardRig) []arrival {
				return []arrival{
					{r.a1, dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: r.a1, Dst: r.far, FlowSeq: 1, Payload: payload})},
					{r.a1, dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: r.a1, Dst: r.b1, FlowSeq: 2, Payload: payload})},
				}
			},
			egress: 2, want: Stats{Forwarded: 2},
		},
		{
			name: "unicast to self",
			arrivals: func(r *shardRig) []arrival {
				return []arrival{{r.a1, dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: r.a1, Dst: r.self, FlowSeq: 1, Payload: payload})}}
			},
			local: 1, want: Stats{DeliveredLocal: 1},
		},
		{
			name: "unicast no route",
			arrivals: func(r *shardRig) []arrival {
				return []arrival{{r.a1, dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: r.a1, Dst: 9999, FlowSeq: 1})}}
			},
			want: Stats{DroppedNoRoute: 1},
		},
		{
			name: "flood first sight and duplicate",
			arrivals: func(r *shardRig) []arrival {
				p := wire.Packet{Route: wire.RouteFlood, Src: r.a1, Dst: r.self, FlowSeq: 1, Payload: payload}
				return []arrival{{r.a1, dataFrame(p)}, {r.b1, dataFrame(p)}}
			},
			egress: 3, local: 1, want: Stats{Forwarded: 3, DeliveredLocal: 1, Duplicates: 1},
		},
		{
			name: "source mask",
			arrivals: func(r *shardRig) []arrival {
				p := wire.Packet{Route: wire.RouteSourceMask, Src: r.a1, Dst: r.far, FlowSeq: 1, Payload: payload}
				for _, nb := range []wire.NodeID{r.a1, r.b1, r.d0} {
					l, _ := r.n.cfg.Graph.LinkBetween(r.self, nb)
					p.Mask.Set(l.ID)
				}
				return []arrival{{r.a1, dataFrame(p)}}
			},
			egress: 2, want: Stats{Forwarded: 2},
		},
		{
			name:  "multicast tree hit",
			setup: joinGroup,
			arrivals: func(r *shardRig) []arrival {
				// Warm the tree and publish it before the packet arrives.
				r.on(0, func() {
					r.n.Engine().Decide(&wire.Packet{Route: wire.RouteMulticast, Src: r.a1, Group: group}, routing.NoLink, true)
					r.n.Engine().PublishIfDirty()
				})
				return multicast(r)
			},
			egress: 3, local: 1, want: Stats{Forwarded: 3, DeliveredLocal: 1},
		},
		{
			name:  "multicast tree miss, hand-off, republish, hit",
			setup: joinGroup,
			arrivals: func(r *shardRig) []arrival {
				next := multicast(r)[0]
				next.frame.Packet.FlowSeq = 2
				return append(multicast(r), next)
			},
			egress: 6, local: 2, want: Stats{Forwarded: 6, DeliveredLocal: 2},
			check: func(t *testing.T, r *shardRig) {
				if _, ok := r.n.DataPlane().Snapshot().Trees[routing.TreeKey{Src: r.a1, Group: group}]; !ok {
					t.Error("hand-off did not republish the tree it computed")
				}
			},
		},
		{
			name: "TTL 1",
			arrivals: func(r *shardRig) []arrival {
				return []arrival{{r.a1, dataFrame(wire.Packet{Route: wire.RouteLinkState, TTL: 1, Src: r.a1, Dst: r.far, FlowSeq: 1})}}
			},
			want: Stats{DroppedTTL: 1},
		},
		{
			name:   "bad signature under a keyring",
			mutate: withKeyring,
			arrivals: func(r *shardRig) []arrival {
				return []arrival{
					{r.a1, dataFrame(wire.Packet{Route: wire.RouteLinkState, LinkProto: wire.LPITPriority, Src: r.a1, Dst: r.far, FlowSeq: 1, Payload: payload})},
					{r.a1, dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: r.a1, Dst: r.far, FlowSeq: 2, Payload: payload})},
				}
			},
			egress: 1, want: Stats{Forwarded: 1, DroppedAuth: 1},
		},
		{
			name:   "Compromise.DropData",
			mutate: func(_ *shardRig, cfg *Config) { cfg.Compromised.DropData = true },
			arrivals: func(r *shardRig) []arrival {
				return []arrival{{r.a1, dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: r.a1, Dst: r.far, FlowSeq: 1, Payload: payload})}}
			},
			want: Stats{Blackholed: 1},
		},
		{
			name:   "Compromise.CorruptData",
			mutate: func(_ *shardRig, cfg *Config) { cfg.Compromised.CorruptData = true },
			arrivals: func(r *shardRig) []arrival {
				return []arrival{{r.a1, dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: r.a1, Dst: r.far, FlowSeq: 1, Payload: payload})}}
			},
			egress: 1, want: Stats{Forwarded: 1},
			check: func(t *testing.T, r *shardRig) {
				f, _, err := wire.UnmarshalFrame(mustHex(t, r.egress[0]))
				if err != nil || f.Packet.Payload[0] != payload[0]^0xff {
					t.Errorf("forwarded copy not corrupted: %v %v", f, err)
				}
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got [2]outcome
			for entry := range got {
				r := newShardRig(t, c.mutate)
				if c.setup != nil {
					c.setup(r)
				}
				for _, a := range c.arrivals(r) {
					r.inject(entry, a.from, a.frame)
				}
				got[entry] = r.outcome()
				if entry == 1 && c.check != nil {
					c.check(t, r)
				}
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("entering on shard 0 and on shard 1 disagree:\n shard 0: %+v\n shard 1: %+v", got[0], got[1])
			}
			if len(got[1].Egress) != c.egress || len(got[1].Local) != c.local || got[1].Stats != c.want {
				t.Errorf("got %d transmissions, %d deliveries, %+v; want %d, %d, %+v",
					len(got[1].Egress), len(got[1].Local), got[1].Stats, c.egress, c.local, c.want)
			}
		})
	}
}

// mustHex decodes the frame bytes of one recorded "neighbor:hex" egress.
func mustHex(t *testing.T, rec string) []byte {
	t.Helper()
	_, frame, _ := strings.Cut(rec, ":")
	b, err := hex.DecodeString(frame)
	if err != nil {
		t.Fatalf("egress record %q: %v", rec, err)
	}
	return b
}

// TestMembershipOnDataShard is the regression test for a control payload
// surfacing on a data shard: a membership record riding a best-effort
// data frame that reaches shard 1 (no steering classifier ran) must be
// absorbed by the directory on the control loop, not dropped.
func TestMembershipOnDataShard(t *testing.T) {
	r := newShardRig(t, func(_ *shardRig, cfg *Config) {
		mc := membership.DefaultConfig()
		cfg.Membership = &mc
	})
	rec := membership.Record{ID: r.far, Epoch: 5, Status: membership.StatusJoined}
	r.inject(1, r.a1, controlFrame(wire.PTMembership, r.a1, membership.AppendUpdate(nil, rec)))
	var got membership.Record
	var ok bool
	r.on(0, func() { got, ok = r.n.Membership().Directory().Get(r.far) })
	if !ok || got != rec {
		t.Fatalf("directory holds %+v (present %v), want %+v", got, ok, rec)
	}
}

// TestUnknownPeerIsCounted covers the three places a shard meets a node it
// has no link entry for: a frame from a non-neighbor, and an egress
// hand-off toward one on either kind of shard.
func TestUnknownPeerIsCounted(t *testing.T) {
	r := newShardRig(t, nil)
	r.inject(1, 9999, dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: 9999, Dst: r.self}))
	r.inject(0, 9999, dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: 9999, Dst: r.self}))
	for shard := 0; shard < 2; shard++ {
		s := r.n.DataPlane().shards[shard]
		r.on(shard, func() { s.egress(9999, &wire.Packet{Type: wire.PTData}) })
	}
	want := Stats{DroppedUnknownPeer: 4}
	if got := r.outcome().Stats; got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestMalformedInputIsCounted feeds the four kinds of input a node can fail
// to decode — a truncated frame, and a truncated advertisement, a truncated
// announcement and a membership payload of an unknown kind, each inside a
// well-formed frame that reaches a data shard — and reads one count apiece:
// nothing on the control path is dropped silently.
func TestMalformedInputIsCounted(t *testing.T) {
	r := newShardRig(t, func(_ *shardRig, cfg *Config) {
		mc := membership.DefaultConfig()
		cfg.Membership = &mc
	})
	whole, err := dataFrame(wire.Packet{Route: wire.RouteLinkState, Src: r.a1, Dst: r.self}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r.on(1, func() { r.n.DataPlane().HandleUnderlay(1, r.a1, whole[:len(whole)/2]) })
	r.settle()
	if got := r.outcome().Stats; got != (Stats{DroppedMalformed: 1}) {
		t.Fatalf("after a truncated frame: stats %+v, want one DroppedMalformed", got)
	}

	lsa := (&linkstate.Advertisement{Origin: r.a1, Seq: 1, Entries: []linkstate.Entry{{Link: 0, Up: true}}}).Marshal()
	ann := (&groups.Announcement{Origin: r.a1, Seq: 1, Groups: []wire.GroupID{7}}).Marshal()
	r.inject(1, r.a1, controlFrame(wire.PTLinkState, r.a1, lsa[:len(lsa)-1]))
	r.inject(1, r.a1, controlFrame(wire.PTGroupState, r.a1, ann[:len(ann)-1]))
	r.inject(1, r.a1, controlFrame(wire.PTMembership, r.a1, []byte{9}))
	if got := r.outcome().Stats; got != (Stats{DroppedMalformed: 4}) {
		t.Fatalf("stats %+v, want DroppedMalformed 4 and nothing else", got)
	}
	// Their well-formed versions count nothing.
	r.inject(1, r.a1, controlFrame(wire.PTLinkState, r.a1, lsa))
	r.inject(1, r.a1, controlFrame(wire.PTGroupState, r.a1, ann))
	r.inject(1, r.a1, controlFrame(wire.PTMembership, r.a1, membership.AppendJoinReq(nil, r.far)))
	if got := r.outcome().Stats.DroppedMalformed; got != 4 {
		t.Fatalf("well-formed control payloads moved DroppedMalformed to %d", got)
	}
}

// TestUnknownLinkProtoBuildsNoEndpoint feeds a peer's home shard a frame
// badged with every byte that names no link protocol, and frames whose
// packet asks for a link protocol above wire.LPITReliable. Each is refused
// at decode and counted malformed, and none builds a link endpoint: an
// endpoint lives as long as its link, so one datagram per byte value would
// otherwise leave up to 250 of them per peer. A packet that leaves its
// LinkProto unset (0, as control packets do) still travels best effort,
// on the one best-effort endpoint.
func TestUnknownLinkProtoBuildsNoEndpoint(t *testing.T) {
	r := newShardRig(t, nil)
	pkt := wire.Packet{Route: wire.RouteLinkState, Src: r.a1, Dst: r.self, Payload: []byte("x")}
	var bad [][]byte
	for b := 0; b < 256; b++ {
		if lp := wire.LinkProtoID(b); lp < wire.LPBestEffort || lp > wire.LPITReliable {
			f := dataFrame(pkt)
			f.Proto = lp
			bad = append(bad, marshalFrame(t, f))
		}
	}
	for _, lp := range []wire.LinkProtoID{wire.LPITReliable + 1, 0xff} {
		p := pkt
		p.LinkProto = lp
		bad = append(bad, marshalFrame(t, dataFrame(p)))
	}
	r.on(1, func() {
		for _, b := range bad {
			r.n.DataPlane().HandleUnderlay(1, r.a1, b)
		}
	})
	r.settle()
	home := r.n.plane.shards[1]
	var built int
	r.on(1, func() { built = builtEndpoints(home.peers[r.a1]) })
	if out := r.outcome(); out.Stats != (Stats{DroppedMalformed: uint64(len(bad))}) || len(out.Local) != 0 || built != 0 {
		t.Fatalf("%d frames with unknown link protocols: %d deliveries, %d endpoints built, %+v; want each counted malformed and nothing built",
			len(bad), len(out.Local), built, out.Stats)
	}

	for _, lp := range []wire.LinkProtoID{0, wire.LPBestEffort} {
		p := pkt
		p.LinkProto = lp
		r.inject(1, r.a1, dataFrame(p))
	}
	var bestEffort bool
	r.on(1, func() {
		built = builtEndpoints(home.peers[r.a1])
		bestEffort = home.peers[r.a1].protos[wire.LPBestEffort] != nil
	})
	if out := r.outcome(); len(out.Local) != 2 || built != 1 || !bestEffort {
		t.Fatalf("unset and best-effort LinkProto: %d deliveries, %d endpoints built; want 2 on the one best-effort endpoint", len(out.Local), built)
	}
}
