package link

import (
	"math/bits"
	"time"

	"sonet/internal/seqno"
	"sonet/internal/sim"
	"sonet/internal/wire"
)

// ReliableConfig parameterizes the hop-by-hop Reliable Data Link.
type ReliableConfig struct {
	// Window is the maximum number of unacknowledged data frames in
	// flight.
	Window int
	// QueueLimit bounds packets waiting for window space; beyond it new
	// packets are dropped (and counted in Stats.SendDropped).
	QueueLimit int
	// RTOInit is the initial retransmission timeout; it adapts to the
	// measured RTT afterwards.
	RTOInit time.Duration
	// ReqInterval is the receiver's re-request period for a still-missing
	// sequence.
	ReqInterval time.Duration
	// MaxRetries bounds sender retransmissions per frame before giving up.
	MaxRetries int
	// MaxReqs bounds receiver requests per missing sequence: the gap is
	// abandoned, and the window advances past it, MaxReqs·ReqInterval
	// after it was found.
	MaxReqs int
	// InOrderForwarding holds received packets until they are in sequence
	// before delivering upward. The paper's design forwards out of order
	// at intermediate hops (§III-A); enabling this is the ablation that
	// shows why.
	InOrderForwarding bool
}

// rtoMin floors the adaptive retransmission timeout.
const rtoMin = 2 * time.Millisecond

// DefaultReliableConfig returns the production defaults, tuned for the
// short (~10 ms) overlay links of the resilient architecture.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		Window:      2048,
		QueueLimit:  8192,
		RTOInit:     50 * time.Millisecond,
		ReqInterval: 25 * time.Millisecond,
		MaxRetries:  100,
		MaxReqs:     50,
	}
}

func (c ReliableConfig) withDefaults() ReliableConfig {
	d := DefaultReliableConfig()
	orDefault(&c.Window, d.Window)
	orDefault(&c.QueueLimit, d.QueueLimit)
	orDefault(&c.RTOInit, d.RTOInit)
	orDefault(&c.ReqInterval, d.ReqInterval)
	orDefault(&c.MaxRetries, d.MaxRetries)
	orDefault(&c.MaxReqs, d.MaxReqs)
	return c
}

// Reliable is the Reliable Data Link endpoint (§III-A, citing Amir &
// Danilov DSN 2003): a sliding-window ARQ protocol on one overlay link.
// Losses are detected by the receiver (sequence gaps trigger NACKs) and by
// the sender (retransmission timeout), and recovered locally on the link.
// Received packets are forwarded out of order by default, leaving in-order
// delivery to the final destination, which is what lets a chain of short
// reliable links beat an end-to-end protocol on both latency and
// smoothness (Fig. 3).
//
// Every data frame received, duplicates included, is acknowledged; the ack
// is cumulative with a 64-bit selective map, so one ack covers any number
// of frames. While its Env, a TurnHost, has a turn open, the endpoint
// sends one ack for the whole turn, at its end, echoing the send time of
// the turn's newest data frame: the ack waits at most one turn, and needs
// neither a timer nor a setting. Otherwise every data frame is acked at
// once.
type Reliable struct {
	env Env
	cfg ReliableConfig

	// Sender state. Retransmission slots hold the packet header inline
	// and its bytes in a pooled buffer; drained slots recycle
	// through a freelist so the steady-state send path allocates nothing.
	//
	// Frames in flight sit in ring, indexed by sequence number modulo its
	// power-of-two length: a cumulative ack advances low, a selective ack
	// clears by index, the retransmission timeout resends low. While
	// inFlight > 0, low is the serially oldest unacknowledged sequence and
	// every occupied slot lies in [low, nextSeq]; with nothing in flight
	// low means nothing and is set again by the next transmission.
	nextSeq  uint32
	low      uint32
	ring     []*sentFrame
	inFlight int
	// queue holds slots waiting for window space, at most QueueLimit.
	queue    seqno.FIFO[*sentFrame]
	freeSlot *sentFrame
	rtoTimer sim.Timer
	srtt     time.Duration
	rto      time.Duration

	// Receiver state. hold is the in-order ablation's hold-back buffer,
	// nil for a link that forwards out of order.
	recvWin *seqno.Window
	gaps    *seqno.Queue
	hold    *seqno.HoldBack
	// turns is the env's turn host, nil when it has none. ackOwed is set
	// while an ack waits for the turn's end, and ackEcho is the send time
	// it will echo: the newest data frame's.
	turns   TurnHost
	ackOwed bool
	ackEcho time.Duration

	stats  Stats
	closed bool
	// tx is the reusable frame for synchronous transmits.
	tx wire.Frame
}

type sentFrame struct {
	pkt     wire.Packet
	buf     *wire.Buf
	retries int
	// free links drained slots in the owner's freelist.
	free *sentFrame
}

// spanSlack is how far past the oldest unacknowledged frame the in-flight
// span can reach beyond Window: a selective ack covers the 64 sequences
// after the cumulative edge, so a frame further out stays in flight until
// the edge moves. The ring never grows past Window+spanSlack slots, and
// sends wait in the queue if a misbehaving peer stretches the span there.
const spanSlack = 64

var _ Protocol = (*Reliable)(nil)

// NewReliable returns a Reliable Data Link endpoint.
func NewReliable(env Env, cfg ReliableConfig) *Reliable {
	cfg = cfg.withDefaults()
	r := &Reliable{
		env:     env,
		cfg:     cfg,
		recvWin: seqno.NewWindow(cfg.Window * 2),
		rto:     cfg.RTOInit,
	}
	r.rtoTimer = env.Clock().NewTimer(r.onRTO)
	r.turns, _ = env.(TurnHost)
	var rx seqno.Receiver = r.recvWin
	if cfg.InOrderForwarding {
		r.hold = seqno.NewHoldBack(1)
		rx = inOrderWindow{r.recvWin, r}
	}
	// An accepted arrival lies inside the window, so the clamp, the
	// window's capacity, is never reached.
	r.gaps = seqno.NewQueue(env.Clock(), rx, r.request, seqno.Schedule{
		Step:  cfg.ReqInterval,
		Tries: cfg.MaxReqs,
		Life:  time.Duration(cfg.MaxReqs) * cfg.ReqInterval,
		Clamp: uint32(cfg.Window * 2),
	})
	return r
}

// inOrderWindow is the receive window of a link that forwards in order:
// giving a sequence up also releases what was held behind it.
type inOrderWindow struct {
	*seqno.Window
	r *Reliable
}

func (w inOrderWindow) Pass(seq uint32) {
	w.Window.Pass(seq)
	w.r.hold.Release(w.Cum(), w.r.deliver)
}

// newSlot returns a retransmission slot from the freelist (or fresh).
func (r *Reliable) newSlot() *sentFrame {
	if sf := r.freeSlot; sf != nil {
		r.freeSlot = sf.free
		sf.free = nil
		return sf
	}
	return &sentFrame{}
}

// releaseSlot releases the slot's captured buffer and recycles it.
func (r *Reliable) releaseSlot(sf *sentFrame) {
	if sf.buf != nil {
		r.stats.HistoryBytes -= len(sf.buf.B)
		sf.buf.Release()
		sf.buf = nil
	}
	sf.pkt = wire.Packet{}
	sf.retries = 0
	sf.free = r.freeSlot
	r.freeSlot = sf
}

// Send implements Protocol. The packet is borrowed; the link captures it
// into a retransmission slot backed by a pooled buffer.
func (r *Reliable) Send(p *wire.Packet) {
	if r.closed {
		return
	}
	sf := r.newSlot()
	sf.buf = wire.CapturePacket(&sf.pkt, p, wire.DefaultBufPool)
	r.enqueueSlot(sf)
}

// SendStored is Send for a packet whose byte fields are backed by buf, a
// pooled buffer whose ownership transfers to the link (a pacing queue
// handing over its captured entry). The link releases buf once the frame
// is acknowledged, abandoned, or closed; buf may be nil for a byteless
// packet.
func (r *Reliable) SendStored(p *wire.Packet, buf *wire.Buf) {
	if r.closed {
		if buf != nil {
			buf.Release()
		}
		return
	}
	sf := r.newSlot()
	sf.pkt = *p
	sf.buf = buf
	r.enqueueSlot(sf)
}

// windowFull reports whether a new frame must wait for acknowledgments.
func (r *Reliable) windowFull() bool {
	return r.inFlight >= r.cfg.Window ||
		r.inFlight > 0 && r.nextSeq-r.low+1 >= uint32(r.cfg.Window+spanSlack)
}

// inFlightSlot returns the slot of an unacknowledged sequence, or nil.
func (r *Reliable) inFlightSlot(seq uint32) *sentFrame {
	// Unsigned distances from low keep the range test right across the
	// 2^32 wrap.
	if r.inFlight == 0 || seq-r.low > r.nextSeq-r.low {
		return nil
	}
	return r.ring[seq&uint32(len(r.ring)-1)]
}

// settle takes an in-flight sequence out of the ring — acknowledged or
// abandoned — recycles its slot, and moves low to the oldest frame left.
func (r *Reliable) settle(seq uint32) {
	mask := uint32(len(r.ring) - 1)
	sf := r.ring[seq&mask]
	r.ring[seq&mask] = nil
	r.inFlight--
	r.releaseSlot(sf)
	for r.inFlight > 0 && r.ring[r.low&mask] == nil {
		r.low++
	}
}

// growRing doubles the ring, re-indexing the frames in flight.
func (r *Reliable) growRing() {
	n := 2 * len(r.ring)
	if n == 0 {
		n = 16
	}
	grown := make([]*sentFrame, n)
	for seq := r.low; seq != r.nextSeq; seq++ {
		grown[seq&uint32(n-1)] = r.ring[seq&uint32(len(r.ring)-1)]
	}
	r.ring = grown
}

func (r *Reliable) enqueueSlot(sf *sentFrame) {
	if sf.buf != nil {
		r.stats.HistoryBytes += len(sf.buf.B)
	}
	if r.windowFull() {
		if r.queue.Len() >= r.cfg.QueueLimit {
			r.stats.SendDropped++
			r.releaseSlot(sf)
			return
		}
		r.queue.Push(sf)
		return
	}
	r.transmitNew(sf)
}

func (r *Reliable) transmitNew(sf *sentFrame) {
	r.nextSeq++
	seq := r.nextSeq
	if r.inFlight == 0 {
		r.low = seq
	}
	if seq-r.low >= uint32(len(r.ring)) {
		r.growRing()
	}
	r.ring[seq&uint32(len(r.ring)-1)] = sf
	r.inFlight++
	r.stats.DataSent++
	now := r.env.Clock().Now()
	r.tx = wire.Frame{
		Proto:    wire.LPReliable,
		Kind:     wire.FData,
		Seq:      seq,
		SendTime: now,
		Packet:   &sf.pkt,
	}
	r.env.Transmit(&r.tx)
	r.armRTO(now)
}

// HandleFrame implements Protocol.
func (r *Reliable) HandleFrame(f *wire.Frame) {
	if r.closed {
		return
	}
	switch f.Kind {
	case wire.FData:
		r.onData(f)
	case wire.FAck:
		r.onAck(f)
	case wire.FReq:
		r.onReq(f)
	}
}

func (r *Reliable) onData(f *wire.Frame) {
	if f.Packet == nil {
		return
	}
	if !r.recvWin.Record(f.Seq) {
		r.stats.DuplicatesDropped++
		r.ack(f.SendTime)
		return
	}
	r.deliverUp(f.Seq, f.Packet)
	r.ack(f.SendTime)
	r.gaps.Reveal(f.Seq)
}

// ack acknowledges a data frame sent at echo: at once, or, while the
// host has a turn open, once for the whole turn when it ends.
func (r *Reliable) ack(echo time.Duration) {
	r.ackEcho = echo
	if r.ackOwed {
		return
	}
	if r.turns != nil && r.turns.Defer(r) {
		r.ackOwed = true
		return
	}
	r.sendAck(echo)
}

// EndTurn is the TurnHost's call at the end of a turn the endpoint
// deferred to: the ack owed for the turn's data frames leaves, covering
// every one of them. A closed endpoint sends nothing.
func (r *Reliable) EndTurn() {
	if !r.ackOwed {
		return
	}
	r.ackOwed = false
	if !r.closed {
		r.sendAck(r.ackEcho)
	}
}

// deliverUp hands an accepted packet up, or, forwarding in order, holds it
// until it is in sequence. A sequence at or before the window's edge that
// nothing holds was given up, and is passed over.
func (r *Reliable) deliverUp(seq uint32, p *wire.Packet) {
	if r.hold == nil {
		r.deliver(p)
		return
	}
	r.hold.Arrive(seq, p, r.deliver)
	r.hold.Release(r.recvWin.Cum(), r.deliver)
}

func (r *Reliable) deliver(p *wire.Packet) {
	r.stats.Delivered++
	r.env.Deliver(p)
}

func (r *Reliable) sendAck(echo time.Duration) {
	r.stats.Acks++
	r.tx = wire.Frame{
		Proto:    wire.LPReliable,
		Kind:     wire.FAck,
		Ack:      r.recvWin.Cum(),
		AckBits:  r.recvWin.AckBits(),
		SendTime: echo,
	}
	r.env.Transmit(&r.tx)
}

// request transmits one retransmission request per gap due.
func (r *Reliable) request(due []seqno.Request) {
	for _, req := range due {
		r.stats.Requests++
		r.tx = wire.Frame{
			Proto:    wire.LPReliable,
			Kind:     wire.FReq,
			Seq:      req.Seq,
			SendTime: r.env.Clock().Now(),
		}
		r.env.Transmit(&r.tx)
	}
}

func (r *Reliable) onAck(f *wire.Frame) {
	now := r.env.Clock().Now()
	if f.SendTime > 0 {
		rtt := now - f.SendTime
		if rtt > 0 {
			if r.srtt == 0 {
				r.srtt = rtt
			} else {
				r.srtt = (7*r.srtt + rtt) / 8
			}
			r.rto = clampDur(3*r.srtt, rtoMin)
		}
	}
	// The cumulative ack settles everything up to it. Serial-number
	// compares keep it clearing the window after the sequence space wraps
	// past 2^32.
	for r.inFlight > 0 && seqno.LE(r.low, f.Ack) {
		r.settle(r.low)
	}
	// Bit d-1 of the selective ack is sequence Ack+d.
	for sel := f.AckBits; sel != 0; sel &= sel - 1 {
		seq := f.Ack + 1 + uint32(bits.TrailingZeros64(sel))
		if r.inFlightSlot(seq) != nil {
			r.settle(seq)
		}
	}
	for r.queue.Len() > 0 && !r.windowFull() {
		r.transmitNew(r.queue.Pop())
	}
	r.armRTO(now)
}

func (r *Reliable) onReq(f *wire.Frame) {
	if entry := r.inFlightSlot(f.Seq); entry != nil {
		r.retransmit(f.Seq, entry)
	}
}

func (r *Reliable) retransmit(seq uint32, entry *sentFrame) {
	entry.retries++
	if entry.retries > r.cfg.MaxRetries {
		r.settle(seq)
		r.stats.SendDropped++
		return
	}
	r.stats.Retransmissions++
	// The retained packet is link-owned, so the retransmission flag can be
	// set in place; Transmit marshals synchronously and the flag is sticky
	// for the remaining retries anyway.
	entry.pkt.Flags |= wire.FRetrans
	r.tx = wire.Frame{
		Proto:    wire.LPReliable,
		Kind:     wire.FData,
		Seq:      seq,
		SendTime: r.env.Clock().Now(),
		Packet:   &entry.pkt,
	}
	r.env.Transmit(&r.tx)
}

// armRTO (re)arms the sender retransmission timer for rto after now,
// the caller's reading of the clock, when frames are in flight.
func (r *Reliable) armRTO(now time.Duration) {
	if r.inFlight == 0 {
		r.rtoTimer.Stop()
		return
	}
	r.rtoTimer.ResetAt(now + r.rto)
}

// onRTO retransmits the serially oldest outstanding frame and backs off.
func (r *Reliable) onRTO() {
	if r.closed || r.inFlight == 0 {
		return
	}
	r.retransmit(r.low, r.inFlightSlot(r.low))
	r.rto = clampDur(2*r.rto, rtoMin)
	r.armRTO(r.env.Clock().Now())
}

// Stats implements Protocol.
func (r *Reliable) Stats() Stats {
	st := r.stats
	st.HistoryPackets, st.WindowBytes = r.OutstandingFrames(), r.recvWin.Bytes()
	return st
}

// OutstandingFrames returns the number of unacknowledged data frames —
// used by tests and by backpressure-sensitive callers.
func (r *Reliable) OutstandingFrames() int { return r.inFlight + r.queue.Len() }

// Close implements Protocol.
func (r *Reliable) Close() {
	r.closed = true
	r.rtoTimer.Stop()
	r.gaps.Close()
	// Release retransmission and reordering buffers so a torn-down link
	// holds no packet memory (and returns no pooled bytes late).
	for r.inFlight > 0 {
		r.settle(r.low)
	}
	r.ring = nil
	for r.queue.Len() > 0 {
		r.releaseSlot(r.queue.Pop())
	}
	r.queue = seqno.FIFO[*sentFrame]{}
	if r.hold != nil {
		r.hold.Close()
	}
}
