package link

import (
	"time"

	"sonet/internal/seqno"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// StrikesConfig parameterizes the NM-Strikes real-time protocol (Fig. 4).
type StrikesConfig struct {
	// N is the number of spaced retransmission requests the receiver
	// schedules per missing packet.
	N int
	// M is the number of spaced retransmissions the sender schedules per
	// received request.
	M int
	// Budget is the recovery window: the time after loss detection within
	// which a recovered packet is still useful. For live TV on a
	// continental path, the paper's 200 ms one-way bound leaves about
	// 160 ms of budget (§IV-A); for remote manipulation only 20-25 ms
	// (§V-A).
	Budget time.Duration
	// RTT is the link round-trip estimate used to space requests so that
	// even the response to the last request can arrive within budget.
	RTT time.Duration
	// HistoryLimit bounds the sender's retransmission buffer (packets).
	// The buffer grows toward it only as far as the packets of the last
	// Budget + RTT need.
	HistoryLimit int
}

// DefaultStrikesConfig returns NM-Strikes defaults for a 10 ms overlay
// link with a 160 ms recovery budget.
func DefaultStrikesConfig() StrikesConfig {
	return StrikesConfig{
		N:            3,
		M:            2,
		Budget:       160 * time.Millisecond,
		RTT:          20 * time.Millisecond,
		HistoryLimit: 4096,
	}
}

func (c StrikesConfig) withDefaults() StrikesConfig {
	d := DefaultStrikesConfig()
	orDefault(&c.N, d.N)
	orDefault(&c.M, d.M)
	orDefault(&c.Budget, d.Budget)
	orDefault(&c.RTT, d.RTT)
	orDefault(&c.HistoryLimit, d.HistoryLimit)
	return c
}

// requestSpacing returns the interval between the receiver's N requests:
// the requests are spread as much as possible over the budget while
// leaving one RTT for the final response to arrive (§IV-A: "requests
// should be spaced out as much as possible, but not so much that the
// deadline is not met").
func (c StrikesConfig) requestSpacing() time.Duration {
	usable := c.Budget - c.RTT
	if usable <= 0 {
		return 0
	}
	return usable / time.Duration(c.N)
}

// retransSpacing returns the interval between the sender's M
// retransmissions given the receiver's remaining recovery budget: the
// copies are spread as widely as the deadline allows ("also spaced to
// avoid correlated loss", §IV-A), leaving half an RTT for the last copy
// to arrive.
func (c StrikesConfig) retransSpacing(remaining time.Duration) time.Duration {
	usable := remaining - c.RTT/2
	spacing := usable / time.Duration(c.M)
	if spacing < time.Millisecond {
		spacing = time.Millisecond
	}
	return spacing
}

// Strikes is the NM-Strikes real-time link protocol (§IV-A, Fig. 4): it
// guarantees timeliness rather than complete reliability. The receiver
// sends N retransmission requests per missing packet, spaced to dodge the
// window of correlated loss, and gives the packet up Budget after it
// noticed the gap; the sender answers a request with M spaced
// retransmissions. A packet that arrives is requested no more. Worst-case
// sender-side cost is 1 + M·p per packet at loss rate p.
type Strikes struct {
	env Env
	cfg StrikesConfig

	// Sender state: the sent packets a request can still ask for, at most
	// the last HistoryLimit, captured for retransmission. spare is the slot
	// the ring last evicted, which the next Send captures over.
	nextSeq uint32
	history *SeqRing[*sentPacket]
	spare   *sentPacket

	// Receiver state.
	recvWin *seqno.Window
	gaps    *seqno.Queue

	stats  Stats
	closed bool
	// tx is the reusable frame for transmits (all calls are serialized by
	// the node's executor, timers included).
	tx wire.Frame
}

// sentPacket is one history slot: the packet header, in bytes its
// signature and payload, its sequence and when it was sent. The slot owns
// bytes and keeps them across reuse, so the history holds what its packets
// weigh — a pooled buffer would hold its size class for as long, 4 KiB for
// a 1.2 KB video payload.
//
// A request opens a retransmission epoch on the slot: copies more
// retransmissions, spacing apart, sent by the slot's timer, and requests
// before epochEnd are redundant with them. The timer is made with the
// slot and kept when the slot is reused; it is armed exactly while
// copies > 0.
type sentPacket struct {
	pkt   wire.Packet
	bytes []byte
	seq   uint32
	at    time.Duration

	copies   int
	spacing  time.Duration
	epochEnd time.Duration
	timer    sim.Timer
}

var _ Protocol = (*Strikes)(nil)

// NewStrikes returns an NM-Strikes endpoint.
func NewStrikes(env Env, cfg StrikesConfig) *Strikes {
	cfg = cfg.withDefaults()
	s := &Strikes{env: env, cfg: cfg, recvWin: seqno.NewWindow(1 << 16)}
	s.history = NewSeqRing(cfg.HistoryLimit, s.wanted, s.forget)
	s.gaps = seqno.NewQueue(env.Clock(), s.recvWin, s.request, seqno.Schedule{
		Step:  cfg.requestSpacing(),
		Tries: cfg.N,
		Life:  cfg.Budget,
		Clamp: maxGapScan,
	})
	return s
}

// wanted reports whether, as put is sent, a request for held can still
// arrive in time to be worth answering: the receiver gives a missing packet
// up Budget after it noticed, and its last request takes up to an RTT more
// to get here. The history grows rather than displace such a packet, so it
// is sized by the link's rate times this horizon instead of by HistoryLimit.
func (s *Strikes) wanted(held, put *sentPacket) bool {
	return put.at-held.at < s.cfg.Budget+s.cfg.RTT
}

// Send implements Protocol. The packet is borrowed; the retransmission
// history captures it.
func (s *Strikes) Send(p *wire.Packet) {
	if s.closed {
		return
	}
	s.nextSeq++
	seq := s.nextSeq
	sp := s.spare
	if sp == nil {
		sp = &sentPacket{}
		sp.timer = s.env.Clock().NewTimer(func() { s.retransmit(sp) })
	}
	s.spare = nil
	sp.bytes = wire.CaptureInto(&sp.pkt, p, sp.bytes)
	sp.seq, sp.at = seq, s.env.Clock().Now()
	s.history.Put(seq, sp)
	s.stats.HistoryBytes += len(sp.bytes)
	s.stats.DataSent++
	s.tx = wire.Frame{
		Proto:    wire.LPRealTime,
		Kind:     wire.FData,
		Seq:      seq,
		SendTime: sp.at,
		Packet:   p,
	}
	s.env.Transmit(&s.tx)
}

// forget lets go of a sequence leaving the history: its retransmissions
// still scheduled are cancelled and its slot waits for the next Send. The
// slot's timer is armed exactly while copies remain (onReq arms it with
// M ≥ 1, retransmit re-arms it only for another), so most slots, never
// requested, leave without touching it.
func (s *Strikes) forget(_ uint32, sp *sentPacket) {
	if sp.copies > 0 {
		sp.timer.Stop()
		sp.copies = 0
	}
	sp.epochEnd = 0
	s.stats.HistoryBytes -= len(sp.bytes)
	s.spare = sp
}

// HandleFrame implements Protocol.
func (s *Strikes) HandleFrame(f *wire.Frame) {
	if s.closed {
		return
	}
	switch f.Kind {
	case wire.FData:
		s.onData(f)
	case wire.FReq:
		s.onReq(f)
	}
}

func (s *Strikes) onData(f *wire.Frame) {
	if f.Packet == nil {
		return
	}
	if !s.recvWin.Record(f.Seq) {
		s.stats.DuplicatesDropped++
		return
	}
	s.stats.Delivered++
	s.env.Deliver(f.Packet)
	if s.gaps.Reveal(f.Seq) {
		s.stats.GapScanClamps++
	}
}

// maxGapScan bounds how many gaps one data frame can queue. The sequence
// comes off the wire, and a wild jump (corruption, or a peer restarting
// its space) must not spin the event loop queueing tens of thousands of
// gaps. Genuine reordering gaps are tiny (a few packets); the older ones
// of a larger span are given up at once, being lost for good from a
// real-time protocol's perspective anyway.
const maxGapScan = 1024

// request sends one of the N spaced strikes for each missing sequence due
// (the receiver side of Fig. 4). A request carries the time left before
// the receiver gives the sequence up (in microseconds, via the Ack field)
// so the sender can spread its M copies over exactly the useful window.
func (s *Strikes) request(due []seqno.Request) {
	for _, req := range due {
		s.stats.Requests++
		s.tx = wire.Frame{
			Proto:    wire.LPRealTime,
			Kind:     wire.FReq,
			Seq:      req.Seq,
			Ack:      uint32(req.Left / time.Microsecond),
			SendTime: s.env.Clock().Now(),
		}
		s.env.Transmit(&s.tx)
	}
}

// onReq answers the first received retransmission request with M spaced
// retransmissions (the sender side of Fig. 4): the copies are spread over
// the remaining recovery budget the request reports, so even the Mth
// response to the Nth request can still arrive on time. Requests arriving
// while the retransmission epoch is active are ignored, bounding the
// worst-case sender cost at 1 + M·p.
func (s *Strikes) onReq(f *wire.Frame) {
	sp, ok := s.history.Get(f.Seq)
	now := s.env.Clock().Now()
	if !ok || now < sp.epochEnd {
		return
	}
	remaining := time.Duration(f.Ack) * time.Microsecond
	if remaining <= 0 || remaining > s.cfg.Budget {
		remaining = s.cfg.Budget
	}
	// In transit the request consumed half an RTT of the budget.
	remaining -= s.cfg.RTT / 2
	sp.copies = s.cfg.M
	sp.spacing = s.cfg.retransSpacing(remaining)
	// The epoch spans the rest of the budget: later strikes for this
	// sequence are redundant with the copies already scheduled.
	sp.epochEnd = now + max(remaining, time.Duration(s.cfg.M)*sp.spacing)
	sp.timer.Reset(0)
}

// retransmit sends the slot's next copy and schedules the one after.
func (s *Strikes) retransmit(sp *sentPacket) {
	sp.copies--
	if sp.copies > 0 {
		sp.timer.Reset(sp.spacing)
	}
	// The history entry is link-owned, so the retransmission flag can be
	// set in place.
	sp.pkt.Flags |= wire.FRetrans
	s.stats.Retransmissions++
	s.tx = wire.Frame{
		Proto:    wire.LPRealTime,
		Kind:     wire.FData,
		Seq:      sp.seq,
		SendTime: s.env.Clock().Now(),
		Packet:   &sp.pkt,
	}
	s.env.Transmit(&s.tx)
}

// Stats implements Protocol.
func (s *Strikes) Stats() Stats {
	st := s.stats
	st.HistoryPackets, st.WindowBytes = s.history.Len(), s.recvWin.Bytes()
	return st
}

// Close implements Protocol.
func (s *Strikes) Close() {
	s.closed = true
	s.gaps.Close()
	// Drop the retransmission history, stopping every slot's timer, so a
	// torn-down link holds no packet memory.
	s.history.Clear()
	s.spare = nil
}
