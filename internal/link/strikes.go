package link

import (
	"time"

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
	if c.N <= 0 {
		c.N = d.N
	}
	if c.M <= 0 {
		c.M = d.M
	}
	if c.Budget <= 0 {
		c.Budget = d.Budget
	}
	if c.RTT <= 0 {
		c.RTT = d.RTT
	}
	if c.HistoryLimit <= 0 {
		c.HistoryLimit = d.HistoryLimit
	}
	return c
}

// SingleStrikeConfig returns the configuration of the NM-Strikes
// predecessor used for VoIP (§V-A, citing 1-800-OVERLAYS): one request and
// one retransmission per lost packet.
func SingleStrikeConfig(budget, rtt time.Duration) StrikesConfig {
	return StrikesConfig{N: 1, M: 1, Budget: budget, RTT: rtt}
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
// schedules N retransmission requests per missing packet, spaced to dodge
// the window of correlated loss; the sender answers each arriving request
// with M spaced retransmissions. A receiver that recovers a packet cancels
// that packet's remaining requests. Worst-case sender-side cost is
// 1 + M·p per packet at loss rate p.
type Strikes struct {
	env Env
	cfg StrikesConfig

	// Sender state: the sent packets a request can still ask for, at most
	// the last HistoryLimit, captured for retransmission. spare is the slot
	// the ring last evicted, which the next Send captures over.
	nextSeq uint32
	history *SeqRing[*sentPacket]
	spare   *sentPacket
	// retransEpoch tracks sequences with retransmissions currently
	// scheduled, so duplicate requests within one epoch don't multiply.
	retransEpoch map[uint32][]sim.Timer

	// Receiver state.
	recvWin *seqWindow
	// high is the highest sequence ever received; new arrivals above
	// high+1 reveal gaps.
	high uint32
	// pending tracks scheduled request timers per missing sequence.
	pending map[uint32]*strikeState

	stats  Stats
	closed bool
	// tx is the reusable frame for transmits (all calls are serialized by
	// the node's executor, timers included).
	tx wire.Frame
}

// sentPacket is one history slot: the packet header, in bytes its
// signature and payload, and when it was sent. The slot owns bytes and
// keeps them across reuse, so the history holds what its packets weigh — a
// pooled buffer would hold its size class for as long, 4 KiB for a 1.2 KB
// video payload.
type sentPacket struct {
	pkt   wire.Packet
	bytes []byte
	at    time.Duration
}

type strikeState struct {
	timers []sim.Timer
	sent   int
}

var _ Protocol = (*Strikes)(nil)

// NewStrikes returns an NM-Strikes endpoint.
func NewStrikes(env Env, cfg StrikesConfig) *Strikes {
	cfg = cfg.withDefaults()
	s := &Strikes{
		env:          env,
		cfg:          cfg,
		retransEpoch: make(map[uint32][]sim.Timer),
		recvWin:      newSeqWindow(1 << 16),
		pending:      make(map[uint32]*strikeState),
	}
	s.history = NewSeqRing(cfg.HistoryLimit, s.wanted, s.forget)
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
	}
	s.spare = nil
	sp.bytes = wire.CaptureInto(&sp.pkt, p, sp.bytes)
	sp.at = s.env.Clock().Now()
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
// still scheduled are cancelled and its slot waits for the next Send.
func (s *Strikes) forget(seq uint32, sp *sentPacket) {
	stopTimers(s.retransEpoch[seq])
	delete(s.retransEpoch, seq)
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
	prevHigh := s.high
	if seqLT(s.high, f.Seq) {
		s.high = f.Seq
	}
	if s.recvWin.Record(f.Seq) {
		// A recovered packet cancels its remaining scheduled requests.
		s.cancelRequests(f.Seq)
		s.stats.Delivered++
		s.env.Deliver(f.Packet)
	} else {
		s.stats.DuplicatesDropped++
	}
	// Out-of-order arrival reveals gaps: schedule the N strikes for every
	// newly missing sequence between the previous edge and this frame. The
	// sequence comes off the wire, so the scan is clamped — a wild jump
	// (corruption, or a peer restarting its space) must not spin the event
	// loop scheduling billions of strike timers.
	if seqLT(prevHigh, f.Seq) {
		span := f.Seq - prevHigh - 1
		if span > maxGapScan {
			span = maxGapScan
			windowStats.GapScanClamps.Add(1)
		}
		for i := uint32(1); i <= span; i++ {
			seq := prevHigh + i
			if s.recvWin.Seen(seq) {
				continue
			}
			if _, ok := s.pending[seq]; ok {
				continue
			}
			s.scheduleRequests(seq)
		}
	}
}

// maxGapScan bounds how many sequences one data frame can newly mark as
// missing. Genuine reordering gaps are tiny (a few packets); anything
// larger is lost for good from a real-time protocol's perspective anyway.
const maxGapScan = 1024

// scheduleRequests arms the N spaced retransmission requests for one
// missing sequence (the receiver side of Fig. 4).
func (s *Strikes) scheduleRequests(seq uint32) {
	st := &strikeState{}
	s.pending[seq] = st
	spacing := s.cfg.requestSpacing()
	for i := 0; i < s.cfg.N; i++ {
		delay := time.Duration(i) * spacing
		remaining := s.cfg.Budget - delay
		timer := s.env.Clock().After(delay, func() {
			if s.closed || s.recvWin.Seen(seq) {
				return
			}
			st.sent++
			s.stats.Requests++
			// The request carries the remaining recovery budget (in
			// microseconds, via the Ack field) so the sender can spread
			// its M copies over exactly the useful window.
			s.tx = wire.Frame{
				Proto:    wire.LPRealTime,
				Kind:     wire.FReq,
				Seq:      seq,
				Ack:      uint32(remaining / time.Microsecond),
				SendTime: s.env.Clock().Now(),
			}
			s.env.Transmit(&s.tx)
		})
		st.timers = append(st.timers, timer)
	}
	// After the budget expires the packet is no longer useful; forget it.
	expiry := s.env.Clock().After(s.cfg.Budget, func() { s.cancelRequests(seq) })
	st.timers = append(st.timers, expiry)
}

// cancelRequests stops the request timers still scheduled for seq and
// forgets it.
func (s *Strikes) cancelRequests(seq uint32) {
	if st, ok := s.pending[seq]; ok {
		stopTimers(st.timers)
		delete(s.pending, seq)
	}
}

// onReq answers the first received retransmission request with M spaced
// retransmissions (the sender side of Fig. 4): the copies are spread over
// the remaining recovery budget the request reports, so even the Mth
// response to the Nth request can still arrive on time. Requests arriving
// while the retransmission epoch is active are ignored, bounding the
// worst-case sender cost at 1 + M·p.
func (s *Strikes) onReq(f *wire.Frame) {
	seq := f.Seq
	if _, ok := s.history.Get(seq); !ok {
		return
	}
	if _, active := s.retransEpoch[seq]; active {
		return
	}
	remaining := time.Duration(f.Ack) * time.Microsecond
	if remaining <= 0 || remaining > s.cfg.Budget {
		remaining = s.cfg.Budget
	}
	// In transit the request consumed half an RTT of the budget.
	remaining -= s.cfg.RTT / 2
	spacing := s.cfg.retransSpacing(remaining)
	timers := make([]sim.Timer, 0, s.cfg.M+1)
	for j := 0; j < s.cfg.M; j++ {
		delay := time.Duration(j) * spacing
		timers = append(timers, s.env.Clock().After(delay, func() {
			if s.closed {
				return
			}
			sp, still := s.history.Get(seq)
			if !still {
				return
			}
			// The history entry is link-owned, so the retransmission flag
			// can be set in place.
			sp.pkt.Flags |= wire.FRetrans
			s.stats.Retransmissions++
			s.tx = wire.Frame{
				Proto:    wire.LPRealTime,
				Kind:     wire.FData,
				Seq:      seq,
				SendTime: s.env.Clock().Now(),
				Packet:   &sp.pkt,
			}
			s.env.Transmit(&s.tx)
		}))
	}
	// The epoch spans the rest of the budget: later strikes for this
	// sequence are redundant with the copies already scheduled.
	epochEnd := remaining
	if epochEnd < time.Duration(s.cfg.M)*spacing {
		epochEnd = time.Duration(s.cfg.M) * spacing
	}
	timers = append(timers, s.env.Clock().After(epochEnd, func() {
		delete(s.retransEpoch, seq)
	}))
	s.retransEpoch[seq] = timers
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
	for seq := range s.pending {
		s.cancelRequests(seq)
	}
	for seq, timers := range s.retransEpoch {
		stopTimers(timers)
		delete(s.retransEpoch, seq)
	}
	// Drop the retransmission history so a torn-down link holds no packet
	// memory.
	s.history.Clear()
	s.spare = nil
}
