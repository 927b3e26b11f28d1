package link

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"sonet/internal/netemu"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// sentRecord is one transmitted frame as the schedule pin sees it.
type sentRecord struct {
	at       time.Duration
	end      byte
	kind     wire.FrameKind
	seq, ack uint32
}

// impairedLink is the adversary of the schedule pin: per direction, bursty
// loss from a Gilbert–Elliott chain stepped once per millisecond, plus
// independent loss, duplication and reordering jitter. Every decision is a
// function of the seed and the frame (send time, end, kind, sequence, ack)
// and never of the order frames are transmitted in, so two link
// implementations that send the same frames at the same instants meet the
// same losses even where they order one instant's work differently.
type impairedLink struct {
	seed     uint64
	bursts   [2][]bool // per end: the chain is in its bad state during ms i
	jitter   time.Duration
	dupDelay time.Duration
	log      []sentRecord
}

func newImpairedLink(seed uint64, horizon, jitter, dupDelay time.Duration) *impairedLink {
	l := &impairedLink{seed: seed, jitter: jitter, dupDelay: dupDelay}
	for end := range l.bursts {
		ge := netemu.NewGilbertElliott(0.004, 0.2, 0, 1)
		rng := rand.New(rand.NewPCG(seed, uint64(end)))
		l.bursts[end] = make([]bool, horizon/time.Millisecond)
		for ms := range l.bursts[end] {
			l.bursts[end][ms] = ge.Drop(time.Duration(ms)*time.Millisecond, rng)
		}
	}
	return l
}

// draw returns the frame's uniform draw for one decision, salt naming it.
func (l *impairedLink) draw(end byte, at time.Duration, f *wire.Frame, salt byte) uint64 {
	h := fnv.New64a()
	var b [30]byte
	binary.LittleEndian.PutUint64(b[0:], l.seed)
	binary.LittleEndian.PutUint64(b[8:], uint64(at))
	binary.LittleEndian.PutUint32(b[16:], f.Seq)
	binary.LittleEndian.PutUint32(b[20:], f.Ack)
	b[24], b[25], b[26] = end, byte(f.Kind), salt
	h.Write(b[:])
	return h.Sum64()
}

// attach makes e one end of the impaired link: everything it transmits is
// logged, then lost, delayed or duplicated.
func (l *impairedLink) attach(e *pipeEnd, end byte) {
	e.drop = func(f *wire.Frame) bool {
		at := e.sched.Now()
		l.log = append(l.log, sentRecord{at, end, f.Kind, f.Seq, f.Ack})
		if ms := int(at / time.Millisecond); ms < len(l.bursts[end]) && l.bursts[end][ms] {
			return true
		}
		return l.draw(end, at, f, 'l')%100 == 0
	}
	e.impair = func(f *wire.Frame) []time.Duration {
		at := e.sched.Now()
		first := time.Duration(l.draw(end, at, f, 'j') % uint64(l.jitter))
		if l.draw(end, at, f, 'd')%100 != 0 {
			return []time.Duration{first}
		}
		return []time.Duration{first, first + time.Duration(l.draw(end, at, f, 'D')%uint64(l.dupDelay))}
	}
}

// digest is FNV-1a over the sorted multiset of transmitted frames, both
// ends' counters and the order each end delivered in.
func (l *impairedLink) digest(p *pipe) uint64 {
	recs := slices.Clone(l.log)
	slices.SortFunc(recs, func(x, y sentRecord) int {
		switch {
		case x.at != y.at:
			return int(x.at - y.at)
		case x.end != y.end:
			return int(x.end) - int(y.end)
		case x.kind != y.kind:
			return int(x.kind) - int(y.kind)
		case x.seq != y.seq:
			return int(int64(x.seq) - int64(y.seq))
		}
		return int(int64(x.ack) - int64(y.ack))
	})
	h := fnv.New64a()
	var buf [18]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[0:], uint64(r.at))
		binary.LittleEndian.PutUint32(buf[8:], r.seq)
		binary.LittleEndian.PutUint32(buf[12:], r.ack)
		buf[16], buf[17] = r.end, byte(r.kind)
		h.Write(buf[:])
	}
	for _, e := range []*pipeEnd{p.a, p.b} {
		fmt.Fprintf(h, "%+v %v", pinnedCounters(e.proto.Stats()), deliveredSeqs(e))
	}
	return h.Sum64()
}

// pinnedCounters is Stats as the digests were recorded, before the clamp
// counters existed: a counter added to Stats does not move the pins.
func pinnedCounters(st Stats) any {
	return struct {
		DataSent, Retransmissions, Requests, Acks, Delivered, DuplicatesDropped, SendDropped uint64
		HistoryPackets, HistoryBytes, WindowBytes                                            int
	}{st.DataSent, st.Retransmissions, st.Requests, st.Acks, st.Delivered, st.DuplicatesDropped, st.SendDropped,
		st.HistoryPackets, st.HistoryBytes, st.WindowBytes}
}

// scheduleCase is one link configuration the pin runs, with a one-way
// latency, reorder jitter and duplicate delay whose sum stays within half
// the configured RTT: no copy of a frame can then arrive after the
// receiver gave it up.
type scheduleCase struct {
	name                      string
	latency, jitter, dupDelay time.Duration
	make                      func(Env) Protocol
}

var scheduleCases = []scheduleCase{
	{"reliable", 5 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond,
		func(e Env) Protocol { return NewReliable(e, ReliableConfig{}) }},
	{"reliable-inorder", 5 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond,
		func(e Env) Protocol { return NewReliable(e, ReliableConfig{InOrderForwarding: true}) }},
	{"reliable-giveup", 5 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond,
		func(e Env) Protocol {
			return NewReliable(e, ReliableConfig{ReqInterval: 4 * time.Millisecond, MaxReqs: 2, MaxRetries: 2, InOrderForwarding: true})
		}},
	{"strikes", 5 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond,
		func(e Env) Protocol { return NewStrikes(e, StrikesConfig{}) }},
	{"continental", 20 * time.Millisecond, 12 * time.Millisecond, 8 * time.Millisecond,
		func(e Env) Protocol { return NewStrikes(e, continentalStrikes()) }},
	{"single-strike", 5 * time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond,
		func(e Env) Protocol {
			return NewStrikes(e, StrikesConfig{N: 1, M: 1, Budget: 60 * time.Millisecond, RTT: 20 * time.Millisecond})
		}},
}

// runSchedule streams frames each way over an impaired link and returns
// the digest of what both ends transmitted and counted.
func runSchedule(c scheduleCase, seed uint64) uint64 {
	const frames, horizon = 2000, time.Minute
	sched := sim.NewScheduler(seed)
	p := newPipe(sched, c.latency)
	l := newImpairedLink(seed, horizon, c.jitter, c.dupDelay)
	l.attach(p.a, 0)
	l.attach(p.b, 1)
	p.a.proto, p.b.proto = c.make(p.a), c.make(p.b)
	for i := uint32(1); i <= frames; i++ {
		sched.After(time.Duration(i)*time.Millisecond, func() { p.a.proto.Send(dataPacket(i)) })
		sched.After(time.Duration(i)*time.Millisecond+333*time.Microsecond, func() { p.b.proto.Send(dataPacket(i)) })
	}
	sched.RunFor(horizon)
	return l.digest(p)
}

// pinnedSchedules holds runSchedule's digests, seeds 1–5 per case.
var pinnedSchedules = map[string][5]uint64{
	"reliable":         {0x70d97bf79c52b221, 0x5f3187d5c17f06ad, 0x8c59c83af658f4b3, 0x997fd80a420e5b6c, 0x54ecc0b204867399},
	"reliable-inorder": {0xa557b1880238895f, 0x85220fd762cbb179, 0xd73b697b8b408a13, 0xffae7ddf26f75876, 0x665e74f309b78661},
	"reliable-giveup":  {0x158a34c56b94cc2, 0x33f13c4be7b75f9, 0xe93d57081033dc92, 0xb0a6300ee0098359, 0xe218e2cc7817535f},
	"strikes":          {0x6b397d075ffa6615, 0xce1be98e01e79531, 0x13d28492ff0d308b, 0xb421df1357e988d0, 0xeb123c7878b40a8f},
	"continental":      {0xc9f571ea04e4923e, 0x548ef30277e071ab, 0x3c44c015b483ddb0, 0x4a82ec4d878a94a, 0xf4ed57fa696f912e},
	"single-strike":    {0xa1742393b18ee734, 0xe6cd97de79a83e1f, 0xdbb9d71be6c7e8a7, 0x9c9323f995400ce7, 0x2021fe98769c7537},
}

// TestLinkRecoverySchedulePinned is the same-behaviour witness for the
// receivers' gap recovery: for every recovering link configuration, over
// five seeds of bursty loss, duplication and reordering, the frames both
// ends transmit (when, which kind, which sequence, which ack) and the
// counters they end with hash to recorded values. A change to how gaps
// are found, requested or given up that moves no request and no give-up
// moves no hash.
func TestLinkRecoverySchedulePinned(t *testing.T) {
	for _, c := range scheduleCases {
		t.Run(c.name, func(t *testing.T) {
			var got [5]uint64
			for i := range got {
				got[i] = runSchedule(c, uint64(i+1))
			}
			if want := pinnedSchedules[c.name]; got != want {
				t.Fatalf("schedule digests %#x, pinned %#x", got, want)
			}
		})
	}
}
