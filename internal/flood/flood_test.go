package flood

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"sonet/internal/wire"
)

const self wire.NodeID = 1

// resynced returns what one Resync toward neighbor sends, as strings, and
// fails if any of it is addressed elsewhere.
func resynced(t *testing.T, d *DB, neighbor wire.NodeID) []string {
	t.Helper()
	sent := []string{}
	d.Resync(neighbor, func(to wire.NodeID, payload []byte) {
		if to != neighbor {
			t.Fatalf("resync toward %v sent to %v", neighbor, to)
		}
		sent = append(sent, string(payload))
	})
	return sent
}

// TestRule walks the flood rule case by case: each row is a script of calls
// on a fresh DB with the answer every call owes, and the counters at the end.
func TestRule(t *testing.T) {
	type step struct {
		op      string // offer, accept, next, resync, purge, gate (refuses origin)
		origin  wire.NodeID
		seq     uint32
		payload string
		retain  bool
		want    any // offer: Verdict; next: uint32; resync: []string
	}
	for _, c := range []struct {
		name  string
		steps []step
		stats Stats
	}{
		{
			name: "stale copy",
			steps: []step{
				{op: "offer", origin: 3, seq: 5, want: News},
				{op: "accept", origin: 3, seq: 5, payload: "a", retain: true},
				{op: "offer", origin: 3, seq: 5, want: Stale},
				{op: "offer", origin: 3, seq: 4, want: Stale},
				{op: "offer", origin: 3, seq: 6, want: News},
				// Offer alone records nothing: 6 is still news.
				{op: "offer", origin: 3, seq: 6, want: News},
				{op: "offer", origin: 4, seq: 0, want: News},
			},
			stats: Stats{Flooded: 1, Stale: 2},
		},
		{
			name: "own echo at or below the counter",
			steps: []step{
				{op: "next", want: uint32(1)},
				{op: "next", want: uint32(2)},
				{op: "next", want: uint32(3)},
				{op: "offer", origin: self, seq: 3, want: Stale},
				{op: "offer", origin: self, seq: 1, want: Stale},
				{op: "next", want: uint32(4)},
			},
			stats: Stats{Stale: 2},
		},
		{
			name: "own echo above the counter",
			steps: []step{
				{op: "next", want: uint32(1)},
				{op: "offer", origin: self, seq: 40, want: Reborn},
				{op: "next", want: uint32(41)},
				{op: "offer", origin: self, seq: 40, want: Stale},
				{op: "offer", origin: self, seq: 41, want: Stale},
				{op: "offer", origin: self, seq: 42, want: Reborn},
				{op: "next", want: uint32(43)},
			},
			stats: Stats{Stale: 2},
		},
		{
			name: "news retained and not retained",
			steps: []step{
				{op: "accept", origin: 3, seq: 1, payload: "full-1", retain: true},
				{op: "accept", origin: 3, seq: 2, payload: "delta-2", retain: false},
				{op: "resync", origin: 9, want: []string{"full-1"}},
				// The unretained payload's sequence is recorded all the same.
				{op: "offer", origin: 3, seq: 2, want: Stale},
				{op: "accept", origin: 3, seq: 3, payload: "full-3", retain: true},
				{op: "resync", origin: 9, want: []string{"full-3"}},
				{op: "accept", origin: 4, seq: 1, payload: "delta-only", retain: false},
				{op: "resync", origin: 9, want: []string{"full-3"}},
			},
			stats: Stats{Flooded: 4, Stale: 1, Resync: 3},
		},
		{
			name: "resync in origin order, once each",
			steps: []step{
				{op: "resync", origin: 2, want: []string{}},
				{op: "accept", origin: 9, seq: 1, payload: "nine", retain: true},
				{op: "accept", origin: 2, seq: 7, payload: "two", retain: true},
				{op: "accept", origin: 7, seq: 1, payload: "seven", retain: false},
				{op: "accept", origin: 5, seq: 3, payload: "five", retain: true},
				{op: "resync", origin: 2, want: []string{"two", "five", "nine"}},
				{op: "resync", origin: 6, want: []string{"two", "five", "nine"}},
			},
			stats: Stats{Flooded: 4, Resync: 6},
		},
		{
			name: "purge, then a restarted numbering is accepted",
			steps: []step{
				{op: "accept", origin: 3, seq: 100, payload: "old", retain: true},
				{op: "accept", origin: 4, seq: 100, payload: "other", retain: true},
				{op: "offer", origin: 3, seq: 1, want: Stale},
				{op: "purge", origin: 3},
				{op: "purge", origin: 8}, // never heard of: nothing to forget
				{op: "resync", origin: 9, want: []string{"other"}},
				{op: "offer", origin: 3, seq: 1, want: News},
				{op: "accept", origin: 3, seq: 1, payload: "new", retain: true},
				{op: "offer", origin: 3, seq: 1, want: Stale},
				{op: "offer", origin: 4, seq: 1, want: Stale},
				{op: "resync", origin: 9, want: []string{"new", "other"}},
			},
			stats: Stats{Flooded: 3, Stale: 3, Resync: 3},
		},
		{
			name: "gate refuses an origin without recording it",
			steps: []step{
				{op: "accept", origin: 3, seq: 5, payload: "three", retain: true},
				{op: "gate", origin: 3},
				// What is already known to be old is stale before it is refused.
				{op: "offer", origin: 3, seq: 5, want: Stale},
				{op: "offer", origin: 3, seq: 6, want: Refused},
				{op: "offer", origin: 3, seq: 6, want: Refused},
				{op: "offer", origin: 4, seq: 1, want: News},
				// The gate never stands between a node and its own echo.
				{op: "gate", origin: self},
				{op: "offer", origin: self, seq: 9, want: Reborn},
				{op: "offer", origin: 3, seq: 6, want: News},
			},
			stats: Stats{Flooded: 1, Stale: 1, Refused: 2},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			d := New(self)
			for i, s := range c.steps {
				var got any
				switch s.op {
				case "offer":
					got = d.Offer(s.origin, s.seq)
				case "accept":
					d.Accept(s.origin, s.seq, []byte(s.payload), s.retain)
				case "next":
					got = d.Next()
				case "resync":
					got = resynced(t, d, s.origin)
				case "purge":
					d.Purge(s.origin)
				case "gate":
					d.SetGate(func(origin wire.NodeID) bool { return origin != s.origin })
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
				if !reflect.DeepEqual(got, s.want) {
					t.Fatalf("step %d (%s origin %v seq %d): got %v, want %v", i, s.op, s.origin, s.seq, got, s.want)
				}
			}
			if got := d.Stats(); got != c.stats {
				t.Fatalf("stats %+v, want %+v", got, c.stats)
			}
		})
	}
}

// TestNumberingWrapsPast2To32: a header numbered 2^32 − 1 — forged,
// corrupt, or a long-lived origin's own — that a peer accepts and the origin
// is Reborn to moves the origin's counter to the top of the space. Its next
// flood is numbered 0, and the peer must read that, and what follows, as
// news: compared raw, the origin went dark at every peer that saw the high
// value, and its own echo could not repair it.
func TestNumberingWrapsPast2To32(t *testing.T) {
	const x wire.NodeID = 3
	const high = 1<<32 - 1
	peer, origin := New(self), New(x)
	origin.seq = high - 10 // an origin that has flooded for a long time
	if v := peer.Offer(x, high); v != News {
		t.Fatalf("peer reads (x, %#x) as %v", uint32(high), v)
	}
	peer.Accept(x, high, []byte("high"), true)
	if v := origin.Offer(x, high); v != Reborn {
		t.Fatalf("origin reads its own echo %#x as %v", uint32(high), v)
	}
	for want := uint32(0); want < 3; want++ {
		seq := origin.Next()
		if seq != want {
			t.Fatalf("origin numbered its flood %d, want %d", seq, want)
		}
		if v := peer.Offer(x, seq); v != News {
			t.Fatalf("peer reads the flood numbered %d after the wrap as %v", seq, v)
		}
		peer.Accept(x, seq, []byte("after"), true)
	}
	if v := peer.Offer(x, high); v != Stale {
		t.Fatalf("peer reads the pre-wrap header as %v after the wrap", v)
	}
}

// TestAcceptCopiesPayload: the retained entry is the DB's own bytes, and a
// later payload from the same origin reuses them.
func TestAcceptCopiesPayload(t *testing.T) {
	d := New(self)
	buf := []byte("first payload")
	d.Accept(3, 1, buf, true)
	copy(buf, "XXXXXXXXXXXXX")
	if got := resynced(t, d, 2); !slices.Equal(got, []string{"first payload"}) {
		t.Fatalf("retained %q after the caller reused its buffer", got)
	}
	if avg := testing.AllocsPerRun(100, func() { d.Accept(3, 2, buf[:5], true) }); avg != 0 {
		t.Fatalf("overwriting a retained payload allocates %.1f", avg)
	}
}

// refDB is the flood logic as linkstate.Manager and groups.Manager each
// carried it before package flood existed — the header checks at the top of
// HandleLSA / HandleAnnouncement, the retention, the resync loop and
// PurgeOrigin, with link state's member check as a flag — kept as the
// reference the DB is held to.
type refDB struct {
	self    wire.NodeID
	seen    map[wire.NodeID]uint32
	last    map[wire.NodeID][]byte
	origins []wire.NodeID
	mySeq   uint32
	stats   Stats
}

func (r *refDB) originate() uint32 {
	r.mySeq++
	return r.mySeq
}

func (r *refDB) handle(origin wire.NodeID, seq uint32, payload []byte, admitted, retain bool) Verdict {
	if last, ok := r.seen[origin]; ok && seq <= last {
		r.stats.Stale++
		return Stale
	}
	if origin == r.self {
		if seq > r.mySeq {
			r.mySeq = seq
			return Reborn
		}
		r.stats.Stale++
		return Stale
	}
	if !admitted {
		r.stats.Refused++
		return Refused
	}
	r.seen[origin] = seq
	if retain {
		last, known := r.last[origin]
		if !known {
			i, _ := slices.BinarySearch(r.origins, origin)
			r.origins = slices.Insert(r.origins, i, origin)
		}
		r.last[origin] = append(last[:0], payload...)
	}
	r.stats.Flooded++
	return News
}

func (r *refDB) resync() []string {
	sent := []string{}
	for _, origin := range r.origins {
		r.stats.Resync++
		sent = append(sent, string(r.last[origin]))
	}
	return sent
}

func (r *refDB) purge(n wire.NodeID) {
	delete(r.seen, n)
	delete(r.last, n)
	if i, ok := slices.BinarySearch(r.origins, n); ok {
		r.origins = slices.Delete(r.origins, i, i+1)
	}
}

// TestDBMatchesManagerLogic replays seeded streams of received headers
// (copies, echoes, jumps, origins the gate refuses, retained and not),
// originations, resyncs and purges through a DB and through refDB, and
// compares every verdict, every sequence number drawn, every resync and the
// counters.
func TestDBMatchesManagerLogic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := New(self)
		admitted := true
		d.SetGate(func(wire.NodeID) bool { return admitted })
		ref := &refDB{self: self, seen: make(map[wire.NodeID]uint32), last: make(map[wire.NodeID][]byte)}
		// high tracks the largest sequence offered per origin so the stream
		// mixes copies, the next number and jumps.
		high := make(map[wire.NodeID]uint32)
		for op := 0; op < 5000; op++ {
			at := fmt.Sprintf("seed %d op %d", seed, op)
			switch k := r.Intn(100); {
			case k < 70:
				origin := wire.NodeID(1 + r.Intn(6))
				seq := high[origin] + uint32(r.Intn(4))
				if r.Intn(3) == 0 {
					seq = uint32(r.Intn(int(high[origin]) + 2))
				}
				if r.Intn(50) == 0 {
					seq += 1000
				}
				high[origin] = max(high[origin], seq)
				payload := []byte(fmt.Sprintf("%v/%d/%d", origin, seq, op))
				retain := r.Intn(3) != 0
				admitted = r.Intn(10) != 0
				want := ref.handle(origin, seq, payload, admitted, retain)
				got := d.Offer(origin, seq)
				if got != want {
					t.Fatalf("%s: origin %v seq %d: verdict %v, reference %v", at, origin, seq, got, want)
				}
				switch {
				case got == News:
					d.Accept(origin, seq, payload, retain)
				case got == Reborn:
					if a, b := d.Next(), ref.originate(); a != b {
						t.Fatalf("%s: reborn flood numbered %d, reference %d", at, a, b)
					}
				}
			case k < 85:
				if a, b := d.Next(), ref.originate(); a != b {
					t.Fatalf("%s: flood numbered %d, reference %d", at, a, b)
				}
			case k < 95:
				if a, b := resynced(t, d, 7), ref.resync(); !slices.Equal(a, b) {
					t.Fatalf("%s: resync %q, reference %q", at, a, b)
				}
			default:
				origin := wire.NodeID(1 + r.Intn(7))
				d.Purge(origin)
				ref.purge(origin)
			}
			if d.Stats() != ref.stats {
				t.Fatalf("%s: stats %+v, reference %+v", at, d.Stats(), ref.stats)
			}
		}
		if st := d.Stats(); st.Stale == 0 || st.Flooded == 0 || st.Refused == 0 || st.Resync == 0 {
			t.Fatalf("seed %d: stream left a counter untouched: %+v", seed, d.Stats())
		}
	}
}
