package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sonet/internal/session"
	"sonet/internal/wire"
)

// startSolo runs one daemon with a client listener and no neighbors:
// flows addressed to node 1 are delivered locally, so only the client
// edge and the session layer carry them.
func startSolo(t testing.TB) *Daemon {
	t.Helper()
	d, err := NewDaemon(DaemonConfig{
		ID: 1, BindUDP: "127.0.0.1:0", BindTCP: "127.0.0.1:0",
		Links:           []LinkDef{{A: 1, B: 2, LatencyMs: 1}},
		HelloIntervalMs: 3600000, Shards: testShards(),
	})
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

// tcpPair returns the two ends of one loopback TCP connection.
func tcpPair(t testing.TB) (dialed, accepted net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	dialed, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if accepted, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	return dialed, accepted
}

// await is waitFor that fails the test, naming what never happened.
func await(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	if !waitFor(t, d, cond) {
		t.Fatalf("timed out waiting for %s", what)
	}
}

// failOnDaemonError fails the test on any asynchronous daemon error: an
// "unknown flow" here means a send overtook the open-flow before it.
func failOnDaemonError(t testing.TB, c *Client) {
	c.OnError(func(err error) { t.Errorf("daemon error: %v", err) })
}

// sentMsg describes one payload so the receiver can regenerate it.
type sentMsg struct {
	size int
	seed byte
}

// flowHeaderLen is the tag the first message of every flow carries:
// sender(1) flow ordinal(2). It tells the receiver whose log to check the
// flow's source port against.
const flowHeaderLen = 3

func (m sentMsg) fill(buf []byte, sender, ordinal int, first bool) []byte {
	buf = buf[:m.size]
	for i := range buf {
		buf[i] = m.seed + byte(i)
	}
	if first {
		buf[0], buf[1], buf[2] = byte(sender), byte(ordinal>>8), byte(ordinal)
	}
	return buf
}

// edgeLedger records, per sender and flow, what was sent, and checks each
// delivery against it: exactly once, intact, in per-flow order.
type edgeLedger struct {
	t  *testing.T
	mu sync.Mutex
	// sent[sender][ordinal] lists the flow's messages in send order.
	sent map[int]map[int][]sentMsg
	// flows maps a delivery's source port to the flow it identifies.
	flows     map[wire.Port]*ledgerFlow
	scratch   []byte
	delivered atomic.Int64
	// credit returns one send credit to the sender of each delivery.
	credit []chan struct{}
}

type ledgerFlow struct {
	sender, ordinal int
	next            uint32
}

func newEdgeLedger(t *testing.T, senders, window int) *edgeLedger {
	l := &edgeLedger{
		t:       t,
		sent:    make(map[int]map[int][]sentMsg),
		flows:   make(map[wire.Port]*ledgerFlow),
		scratch: make([]byte, wire.MaxPayload),
	}
	for s := 0; s < senders; s++ {
		l.sent[s] = make(map[int][]sentMsg)
		ch := make(chan struct{}, window)
		for i := 0; i < window; i++ {
			ch <- struct{}{}
		}
		l.credit = append(l.credit, ch)
	}
	return l
}

// record logs a message before it is sent.
func (l *edgeLedger) record(sender, ordinal int, m sentMsg) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sent[sender][ordinal] = append(l.sent[sender][ordinal], m)
}

func (l *edgeLedger) onDeliver(d session.Delivery) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fl, ok := l.flows[d.SrcPort]
	if !ok {
		if d.Seq != 1 || len(d.Payload) < flowHeaderLen {
			l.t.Errorf("flow on port %d starts with seq %d, %d bytes", d.SrcPort, d.Seq, len(d.Payload))
			return
		}
		fl = &ledgerFlow{sender: int(d.Payload[0]), ordinal: int(d.Payload[1])<<8 | int(d.Payload[2]), next: 1}
		l.flows[d.SrcPort] = fl
	}
	log := l.sent[fl.sender][fl.ordinal]
	if d.Seq != fl.next || int(d.Seq) > len(log) {
		l.t.Errorf("sender %d flow %d: got seq %d, want %d of %d", fl.sender, fl.ordinal, d.Seq, fl.next, len(log))
		return
	}
	fl.next++
	want := log[d.Seq-1].fill(l.scratch, fl.sender, fl.ordinal, d.Seq == 1)
	if !bytes.Equal(d.Payload, want) {
		l.t.Errorf("sender %d flow %d seq %d: payload differs (%d bytes, want %d)", fl.sender, fl.ordinal, d.Seq, len(d.Payload), len(want))
	}
	l.delivered.Add(1)
	select {
	case l.credit[fl.sender] <- struct{}{}:
	default:
	}
}

// finish waits for want deliveries and checks that every flow drained its
// whole log.
func (l *edgeLedger) finish(want int) {
	l.t.Helper()
	await(l.t, 60*time.Second, "all deliveries", func() bool { return l.delivered.Load() >= int64(want) || l.t.Failed() })
	l.mu.Lock()
	defer l.mu.Unlock()
	checked := 0
	for _, fl := range l.flows {
		if n := len(l.sent[fl.sender][fl.ordinal]); int(fl.next)-1 != n {
			l.t.Errorf("sender %d flow %d: %d of %d delivered", fl.sender, fl.ordinal, fl.next-1, n)
		}
		checked += int(fl.next) - 1
	}
	if checked != want {
		l.t.Errorf("%d messages delivered, want %d", checked, want)
	}
}

// edgeSize draws payload sizes from 0 to wire.MaxPayload: mostly small so
// one read carries many frames, with enough large ones that frames
// straddle and fill the 64 KiB reader buffer.
func edgeSize(rng *rand.Rand) int {
	switch rng.IntN(20) {
	case 0:
		return 0
	case 1:
		return wire.MaxPayload - rng.IntN(8)
	case 2, 3:
		return rng.IntN(wire.MaxPayload + 1)
	default:
		return rng.IntN(1500)
	}
}

// TestClientEdgeOrderAndBoundaries drives the coalescing paths the way
// applications do: four goroutines share one connection, each sending
// 2000 messages of sizes from empty to the largest payload, switching to
// a freshly opened flow and joining and leaving groups as they go. Every
// message must arrive once, intact, in per-flow order, and no send may
// overtake the open-flow request ahead of it.
func TestClientEdgeOrderAndBoundaries(t *testing.T) {
	const (
		senders   = 4
		perSender = 2000
		window    = 32
	)
	daemons := startChain(t, 2, 1, 2)
	ledger := newEdgeLedger(t, senders, window)
	recv, err := Dial(daemons[2].TCPAddr(), 700, ledger.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = recv.Close() }()
	send, err := Dial(daemons[1].TCPAddr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = send.Close() }()
	failOnDaemonError(t, send)
	failOnDaemonError(t, recv)
	awaitRoute(t, daemons[2], send, 2)

	spec := session.FlowSpec{DstNode: 2, DstPort: 700, LinkProto: wire.LPReliable, Ordered: true}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(s), 99))
			buf := make([]byte, wire.MaxPayload)
			var flow *RemoteFlow
			ordinal, first := -1, false
			for i := 0; i < perSender; i++ {
				if flow == nil || rng.IntN(100) == 0 {
					f, err := send.OpenFlow(spec)
					if err != nil {
						t.Errorf("OpenFlow: %v", err)
						return
					}
					flow, ordinal, first = f, ordinal+1, true
				}
				if rng.IntN(50) == 0 {
					g := wire.GroupID(1000 + s)
					if err := send.Join(g); err != nil {
						t.Errorf("Join: %v", err)
					}
					if err := send.Leave(g); err != nil {
						t.Errorf("Leave: %v", err)
					}
				}
				m := sentMsg{size: edgeSize(rng), seed: byte(rng.Uint32())}
				if first {
					m.size = max(m.size, flowHeaderLen)
				}
				ledger.record(s, ordinal, m)
				select {
				case <-ledger.credit[s]:
				case <-time.After(30 * time.Second):
					t.Errorf("sender %d stalled at message %d", s, i)
					return
				}
				if err := flow.Send(m.fill(buf, s, ordinal, first)); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
				first = false
			}
		}(s)
	}
	wg.Wait()
	ledger.finish(senders * perSender)
	// A flush is counted after its Write returns, possibly after the
	// client has seen the last message.
	await(t, time.Second, "the edge counters to cover every message", func() bool {
		return daemons[1].ClientStats().FramesIn >= senders*perSender && daemons[2].ClientStats().FramesOut >= senders*perSender
	})
	in, out := daemons[1].ClientStats(), daemons[2].ClientStats()
	if out.Dropped != 0 {
		t.Errorf("%d deliveries dropped under a %d-message window", out.Dropped, senders*window)
	}
	t.Logf("source daemon %+v, destination daemon %+v (%.1f frames per flush)", in, out, float64(out.FramesOut)/float64(out.Flushes))
}

// awaitRoute sends best-effort probes from c to node dst until one
// arrives at a throwaway client there: the overlay has converged.
func awaitRoute(t *testing.T, at *Daemon, c *Client, dst wire.NodeID) {
	t.Helper()
	var got atomic.Bool
	probe, err := Dial(at.TCPAddr(), 0, func(session.Delivery) { got.Store(true) })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = probe.Close() }()
	f, err := c.OpenFlow(session.FlowSpec{DstNode: dst, DstPort: probe.Port()})
	if err != nil {
		t.Fatal(err)
	}
	await(t, 10*time.Second, "a route to the destination", func() bool {
		_ = f.Send([]byte("probe"))
		return got.Load()
	})
}

// fragConn fragments every read and write at seeded random offsets, so
// both directions see short reads, partial frames and split headers.
type fragConn struct {
	net.Conn
	rd, wr *rand.Rand
}

func newFragConn(c net.Conn, seed uint64) *fragConn {
	return &fragConn{Conn: c, rd: rand.New(rand.NewPCG(seed, 1)), wr: rand.New(rand.NewPCG(seed, 2))}
}

func (f *fragConn) Read(p []byte) (int, error) {
	return f.Conn.Read(p[:min(len(p), fragment(f.rd))])
}

func (f *fragConn) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		n, err := f.Conn.Write(p[done:min(len(p), done+fragment(f.wr))])
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, nil
}

// soloPair attaches a sending and a receiving client to one solo daemon
// through the given connection wrapper on all four connection ends.
func soloPair(t testing.TB, d *Daemon, wrap func(net.Conn) net.Conn, deliver func(session.Delivery)) (send, recv *Client) {
	t.Helper()
	attach := func(port wire.Port, deliver func(session.Delivery)) *Client {
		near, far := tcpPair(t)
		if !d.serve(wrap(far)) {
			t.Fatal("daemon closed")
		}
		c, err := newClient(wrap(near), port, deliver)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		failOnDaemonError(t, c)
		return c
	}
	recv = attach(700, deliver)
	send = attach(0, nil)
	return send, recv
}

// TestClientEdgeFragmentedStreams runs both clients and both daemon-side
// connections over fragmenting wrappers.
func TestClientEdgeFragmentedStreams(t *testing.T) {
	const messages = 1500
	d := startSolo(t)
	ledger := newEdgeLedger(t, 1, 32)
	var seed atomic.Uint64
	send, _ := soloPair(t, d, func(c net.Conn) net.Conn { return newFragConn(c, seed.Add(1)) }, ledger.onDeliver)
	flow, err := send.OpenFlow(session.FlowSpec{DstNode: 1, DstPort: 700, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	buf := make([]byte, wire.MaxPayload)
	for i := 0; i < messages; i++ {
		m := sentMsg{size: edgeSize(rng), seed: byte(rng.Uint32())}
		if i == 0 {
			m.size = max(m.size, flowHeaderLen)
		}
		ledger.record(0, 0, m)
		select {
		case <-ledger.credit[0]:
		case <-time.After(30 * time.Second):
			t.Fatalf("stalled at message %d", i)
		}
		if err := flow.Send(m.fill(buf, 0, 0, i == 0)); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	ledger.finish(messages)
}

// TestClientEdgeLoneMessageFlushes is the latency guard: a message that
// finds its connection idle is written by itself, at once. Twenty
// ping-pong messages must cost twenty flushes at the daemon, each
// delivered long before any batching timer could plausibly be tuned to.
func TestClientEdgeLoneMessageFlushes(t *testing.T) {
	d := startSolo(t)
	got := make(chan session.Delivery, 1)
	send, _ := soloPair(t, d, func(c net.Conn) net.Conn { return c }, func(dv session.Delivery) { got <- dv })
	flow, err := send.OpenFlow(session.FlowSpec{DstNode: 1, DstPort: 700})
	if err != nil {
		t.Fatal(err)
	}
	// One message first, so the open-flow reply is behind us.
	if err := flow.Send([]byte("warm")); err != nil {
		t.Fatal(err)
	}
	<-got
	await(t, time.Second, "the daemon to go idle", func() bool {
		st := d.ClientStats()
		return st.FramesOut == 4 // two connect replies, the open-flow reply, one delivery
	})
	before := d.ClientStats()
	const rounds = 20
	var worst time.Duration
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := flow.Send([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("lone message %d not delivered", i)
		}
		worst = max(worst, time.Since(start))
	}
	// The write loop counts a flush after its Write returns, which can be
	// after the client has seen the message.
	await(t, time.Second, "the last flush to be counted", func() bool {
		return d.ClientStats().FramesOut-before.FramesOut >= rounds
	})
	after := d.ClientStats()
	if out, fl := after.FramesOut-before.FramesOut, after.Flushes-before.Flushes; out != rounds || fl != rounds {
		t.Errorf("%d lone messages left in %d flushes carrying %d frames; each must flush alone", rounds, fl, out)
	}
	if in := after.FramesIn - before.FramesIn; in != rounds {
		t.Errorf("daemon read %d frames, want %d", in, rounds)
	}
	t.Logf("worst lone round trip %v", worst)
}

// TestClientCloseWhileWriterBlocked is the regression test for Close
// hanging behind a blocked Send: the peer accepts and never reads, the
// sender fills the TCP window, and Close must still return and fail the
// blocked writer.
func TestClientCloseWhileWriterBlocked(t *testing.T) {
	near, far := tcpPair(t)
	defer func() { _ = far.Close() }()
	// The peer answers the connect and then goes silent.
	ok, _ := appendFrame(nil, []byte{msgOK, 0x02, 0xbc})
	if _, err := far.Write(ok); err != nil {
		t.Fatal(err)
	}
	c, err := newClient(near, 700, nil)
	if err != nil {
		t.Fatal(err)
	}
	flow := &RemoteFlow{c: c, id: 1}
	var sent atomic.Int64
	sendErr := make(chan error, 1)
	go func() {
		payload := make([]byte, 32<<10)
		for {
			if err := flow.Send(payload); err != nil {
				sendErr <- err
				return
			}
			sent.Add(1)
		}
	}()
	// The writer is blocked once the count stops moving.
	last, still := int64(-1), 0
	await(t, 20*time.Second, "the writer to block on a full window", func() bool {
		time.Sleep(20 * time.Millisecond)
		if n := sent.Load(); n != last {
			last, still = n, 0
			return false
		}
		still++
		return still >= 10
	})
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs behind a writer blocked on a peer that stopped reading")
	}
	select {
	case err := <-sendErr:
		if err == nil {
			t.Fatal("blocked Send returned nil after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the writer")
	}
	if err := flow.Send([]byte("x")); !errors.Is(err, errClientClosed) {
		t.Fatalf("Send after Close = %v, want errClientClosed", err)
	}
}

// TestClientCloseWritesQueued: Send only queues, so Close must write
// what is queued before it closes the socket.
func TestClientCloseWritesQueued(t *testing.T) {
	const messages = 500
	d := startSolo(t)
	// The receiver is an in-process session, so no client queue on the way
	// out can drop.
	var got atomic.Int64
	ready := make(chan struct{})
	d.loop.Post(func() {
		cl, err := d.mgr.Connect(700)
		if err != nil {
			t.Error(err)
		} else {
			cl.OnDeliver(func(session.Delivery) { got.Add(1) })
		}
		close(ready)
	})
	<-ready
	send, err := Dial(d.TCPAddr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	failOnDaemonError(t, send)
	flow, err := send.OpenFlow(session.FlowSpec{DstNode: 1, DstPort: 700})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1200)
	for i := 0; i < messages; i++ {
		if err := flow.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := send.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	await(t, 10*time.Second, "every message sent before Close", func() bool { return got.Load() == messages })
}

// TestClientWriteErrorIsSticky: once the peer has reset the connection,
// the write error comes back from every later Send and from Close.
func TestClientWriteErrorIsSticky(t *testing.T) {
	near, far := tcpPair(t)
	ok, _ := appendFrame(nil, []byte{msgOK, 0x02, 0xbc})
	if _, err := far.Write(ok); err != nil {
		t.Fatal(err)
	}
	c, err := newClient(near, 700, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := far.(*net.TCPConn).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	_ = far.Close() // linger 0: the peer resets
	flow := &RemoteFlow{c: c, id: 1}
	var sendErr error
	await(t, 10*time.Second, "a Send to report the write error", func() bool {
		sendErr = flow.Send([]byte("x"))
		return sendErr != nil
	})
	if errors.Is(sendErr, errClientClosed) {
		t.Fatalf("Send = %v, want the write error", sendErr)
	}
	if err := flow.Send([]byte("x")); err != sendErr {
		t.Fatalf("second Send = %v, want %v again", err, sendErr)
	}
	if err := c.Close(); err != sendErr {
		t.Fatalf("Close = %v, want %v", err, sendErr)
	}
}

// failConn fails every Write after the first ok.
type failConn struct {
	net.Conn
	ok atomic.Int64
}

var errInjected = errors.New("injected write failure")

func (f *failConn) Write(p []byte) (int, error) {
	if f.ok.Add(-1) < 0 {
		return 0, errInjected
	}
	return f.Conn.Write(p)
}

// TestClientEdgeWriteErrorClosesConnection: a daemon-side connection whose
// Write fails is closed and leaves the daemon, so later deliveries to its
// port neither queue nor count as drops.
func TestClientEdgeWriteErrorClosesConnection(t *testing.T) {
	d := startSolo(t)
	near, far := tcpPair(t)
	fc := &failConn{Conn: far}
	fc.ok.Store(3) // the connect reply and the first deliveries
	if !d.serve(fc) {
		t.Fatal("daemon closed")
	}
	recv, err := newClient(near, 700, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = recv.Close() }()
	send, err := Dial(d.TCPAddr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = send.Close() }()
	flow, err := send.OpenFlow(session.FlowSpec{DstNode: 1, DstPort: 700})
	if err != nil {
		t.Fatal(err)
	}
	registered := func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		for c := range d.clients {
			if c.conn == fc {
				return true
			}
		}
		return false
	}
	await(t, 10*time.Second, "the failed connection to leave the daemon", func() bool {
		if err := flow.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
		return !registered()
	})
	before := d.ClientStats().FramesIn
	for i := 0; i < 2*clientQueueLen; i++ {
		if err := flow.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	await(t, 10*time.Second, "the daemon to read every send", func() bool {
		return d.ClientStats().FramesIn-before >= 2*clientQueueLen
	})
	barrier := make(chan struct{})
	d.loop.Post(func() { close(barrier) })
	<-barrier
	if dropped := d.ClientStats().Dropped; dropped != 0 {
		t.Fatalf("%d deliveries counted as dropped after the connection failed", dropped)
	}
}

// TestClientEdgeCountsDrops stalls a receiving client so the daemon's
// 256-message queue toward it overflows, then lets it drain: every
// message handed to the connection was either delivered or counted as
// dropped, none vanished.
func TestClientEdgeCountsDrops(t *testing.T) {
	const messages = 4000
	d := startSolo(t)
	release := make(chan struct{})
	var delivered atomic.Int64
	send, _ := soloPair(t, d, func(c net.Conn) net.Conn { return c }, func(session.Delivery) {
		<-release // the callback blocks the client's read loop: a stalled reader
		delivered.Add(1)
	})
	flow, err := send.OpenFlow(session.FlowSpec{DstNode: 1, DstPort: 700})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 8<<10)
	for i := 0; i < messages; i++ {
		if err := flow.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	// All requests have been handled once the daemon has read them and its
	// loop has run past them.
	await(t, 20*time.Second, "the daemon to read every send", func() bool {
		return d.ClientStats().FramesIn >= messages+3
	})
	barrier := make(chan struct{})
	d.loop.Post(func() { close(barrier) })
	<-barrier
	dropped := d.ClientStats().Dropped
	if dropped == 0 {
		t.Fatalf("no drops counted although %d x %d B were sent at a stalled reader", messages, len(payload))
	}
	close(release)
	// Past the barrier every message has been queued or dropped: once the
	// daemon has written all it queued (beyond the two connect replies and
	// the open-flow reply) and the client has read it, nothing more can
	// arrive, and the identity is exact.
	queued := messages - int64(dropped)
	await(t, 20*time.Second, "every queued message to be written and delivered", func() bool {
		return d.ClientStats().FramesOut == uint64(queued)+3 && delivered.Load() >= queued
	})
	if got, st := delivered.Load(), d.ClientStats(); got+int64(st.Dropped) != messages || st.Dropped != dropped {
		t.Fatalf("delivered %d + dropped %d (%d at the barrier) != %d handed to the connection", got, st.Dropped, dropped, messages)
	}
	t.Logf("%d delivered, %d dropped and counted", delivered.Load(), dropped)
}

// TestRemoteFlowSendRejectsOversize checks the synchronous typed error
// for a payload no overlay packet can carry, and that the limit itself
// still passes.
func TestRemoteFlowSendRejectsOversize(t *testing.T) {
	d := startSolo(t)
	got := make(chan int, 1)
	send, _ := soloPair(t, d, func(c net.Conn) net.Conn { return c }, func(dv session.Delivery) { got <- len(dv.Payload) })
	flow, err := send.OpenFlow(session.FlowSpec{DstNode: 1, DstPort: 700})
	if err != nil {
		t.Fatal(err)
	}
	if err := flow.Send(make([]byte, wire.MaxPayload+1)); !errors.Is(err, wire.ErrTooLarge) {
		t.Fatalf("oversize Send = %v, want wire.ErrTooLarge", err)
	}
	if err := flow.Send(make([]byte, wire.MaxPayload)); err != nil {
		t.Fatalf("Send at the limit: %v", err)
	}
	select {
	case n := <-got:
		if n != wire.MaxPayload {
			t.Fatalf("delivered %d bytes, want %d", n, wire.MaxPayload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("payload at the limit not delivered")
	}
}

// TestClientOpenFlowRefusesWideDisjointK: the client protocol carries the
// path count in one byte, so 256 paths would arrive as none.
func TestClientOpenFlowRefusesWideDisjointK(t *testing.T) {
	c, err := Dial(startSolo(t).TCPAddr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for _, k := range []int{256, -1} {
		if _, err := c.OpenFlow(session.FlowSpec{DstNode: 2, DstPort: 700, DisjointK: k}); err == nil {
			t.Errorf("OpenFlow accepted DisjointK %d", k)
		}
	}
	if _, err := c.OpenFlow(session.FlowSpec{DstNode: 2, DstPort: 700, DisjointK: 255}); err != nil {
		t.Fatalf("OpenFlow with DisjointK 255: %v", err)
	}
}

// TestClientOpenFlowRefusesWideDeadline: the client protocol carries the
// deadline as a 32-bit count of microseconds, so 2^32 µs would arrive as
// zero.
func TestClientOpenFlowRefusesWideDeadline(t *testing.T) {
	c, err := Dial(startSolo(t).TCPAddr(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	for _, dl := range []time.Duration{1 << 32 * time.Microsecond, -time.Millisecond} {
		if _, err := c.OpenFlow(session.FlowSpec{DstNode: 2, DstPort: 700, Deadline: dl}); err == nil {
			t.Errorf("OpenFlow accepted deadline %v", dl)
		}
	}
	if _, err := c.OpenFlow(session.FlowSpec{DstNode: 2, DstPort: 700, Deadline: (1<<32 - 1) * time.Microsecond}); err != nil {
		t.Fatalf("OpenFlow with the widest deadline: %v", err)
	}
}

// discardPeer answers a client's connect and then reads and discards
// everything, so a test can measure the client's send path alone.
func discardPeer(t testing.TB, conn net.Conn) {
	ok, _ := appendFrame(nil, []byte{msgOK, 0x02, 0xbc})
	if _, err := conn.Write(ok); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = io.Copy(io.Discard, conn) }()
}

// edgeLoop attaches a sending and a receiving client to d and returns a
// closed loop over them: run(n) sends n payloads of size bytes down one
// flow with at most window in flight, each delivery returning a credit —
// the shape of the repository benchmark's throughput phase.
func edgeLoop(t testing.TB, d *Daemon, spec session.FlowSpec, window, size int) (run func(n int)) {
	t.Helper()
	run, _ = edgeLoopVia(t, d, func(c net.Conn) net.Conn { return c }, spec, window, size)
	return run
}

// edgeLoopVia is edgeLoop over connections passed through wrap; it also
// returns the sending client.
func edgeLoopVia(t testing.TB, d *Daemon, wrap func(net.Conn) net.Conn, spec session.FlowSpec, window, size int) (run func(n int), send *Client) {
	t.Helper()
	credits := make(chan struct{}, window)
	send, _ = soloPair(t, d, wrap, func(session.Delivery) { credits <- struct{}{} })
	flow, err := send.OpenFlow(spec)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, size)
	run = func(n int) {
		inFlight := 0
		for i := 0; i < n; i++ {
			if inFlight == window {
				<-credits
				inFlight--
			}
			if err := flow.Send(payload); err != nil {
				t.Fatal(err)
			}
			inFlight++
		}
		for ; inFlight > 0; inFlight-- {
			<-credits
		}
	}
	return run, send
}

// countConn counts the Writes made on a connection and remembers the
// largest.
type countConn struct {
	net.Conn
	writes, largest atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if n := int64(len(p)); n > c.largest.Load() {
		c.largest.Store(n) // one writer per connection
	}
	return c.Conn.Write(p)
}

// TestClientSendsCoalesce counts the sending client's socket writes in
// the benchmark's closed loop, 64 messages in flight: while one write is
// in the kernel the next messages queue behind it and leave together, and
// no write carries more than clientSendBound plus the frame that crossed
// it.
func TestClientSendsCoalesce(t *testing.T) {
	for _, tc := range []struct {
		size int
		most float64 // writes per message
	}{{1200, 0.25}, {64, 0.05}} {
		t.Run(fmt.Sprintf("payload=%d", tc.size), func(t *testing.T) {
			const window, messages = 64, 20000
			d := startSolo(t)
			wrap := func(c net.Conn) net.Conn { return &countConn{Conn: c} }
			run, send := edgeLoopVia(t, d, wrap, session.FlowSpec{DstNode: 1, DstPort: 700}, window, tc.size)
			run(4 * window)
			cc := send.conn.(*countConn)
			before := cc.writes.Load()
			run(messages)
			per := float64(cc.writes.Load()-before) / messages
			t.Logf("%.3f writes per message, largest write %d B", per, cc.largest.Load())
			// Under the race detector the sender and the writer run at other
			// relative speeds, so the count is asserted only without it.
			if per > tc.most && !wire.RaceEnabled {
				t.Errorf("%.3f writes per message, want at most %.2f", per, tc.most)
			}
			if frame := frameHeaderLen + sendHeaderLen + tc.size; cc.largest.Load() > clientSendBound+int64(frame) {
				t.Errorf("a write carried %d B, more than the %d B bound plus one %d B frame", cc.largest.Load(), clientSendBound, frame)
			}
		})
	}
}

// BenchmarkClientEdge measures the client edge on its own: a message
// goes from one TCP client into a single daemon and straight out to
// another client on the same daemon, so the path is client encode and
// write, daemon batch read, session send and local delivery, daemon
// coalesced write, client read and callback — no overlay hop. The loop is
// closed at 64 messages in flight. One op is one message; frames/flush is
// how many deliveries one daemon socket write carried.
func BenchmarkClientEdge(b *testing.B) {
	for _, size := range []int{64, 1200} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			const window = 64
			d := startSolo(b)
			run := edgeLoop(b, d, session.FlowSpec{DstNode: 1, DstPort: 700}, window, size)
			run(4 * window) // warm buffers, pools and the flow's route
			before := d.ClientStats()
			b.ReportAllocs()
			b.SetBytes(int64(size))
			b.ResetTimer()
			run(b.N)
			b.StopTimer()
			after := d.ClientStats()
			if after.Dropped != 0 {
				b.Fatalf("%d deliveries dropped with %d in flight", after.Dropped, window)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "msg/s")
			b.ReportMetric(float64(after.FramesOut-before.FramesOut)/float64(after.Flushes-before.Flushes), "frames/flush")
		})
	}
}

// TestClientEdgeAllocBudget pins the edge's allocation budget:
// RemoteFlow.Send allocates nothing, and a message crossing a daemon from
// one client to another, the receiving client's Delivery.Payload
// included, costs the edge at most 0.1 allocations beyond what the same
// message costs sent and received in-process — measured as the
// difference between the two paths through one daemon.
func TestClientEdgeAllocBudget(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	t.Run("RemoteFlowSend", func(t *testing.T) {
		near, far := tcpPair(t)
		defer func() { _ = far.Close() }()
		discardPeer(t, far)
		c, err := newClient(near, 700, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = c.Close() }()
		flow := &RemoteFlow{c: c, id: 1}
		payload := make([]byte, 1200)
		if avg := testing.AllocsPerRun(2000, func() {
			if err := flow.Send(payload); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("RemoteFlow.Send allocates %.2f times per message, want 0", avg)
		}
	})
	t.Run("DaemonIngressEgress", func(t *testing.T) {
		const (
			messages = 20000
			window   = 64
			size     = 1200
		)
		d := startSolo(t)
		spec := session.FlowSpec{DstNode: 1, DstPort: 700}

		// In-process path: session send and local delivery on the loop.
		inProc := func() float64 {
			var cl *session.Client
			var flow *session.Flow
			done := make(chan struct{})
			d.loop.Post(func() {
				cl, _ = d.mgr.Connect(700)
				cl.OnDeliver(func(session.Delivery) {})
				src, _ := d.mgr.Connect(0)
				flow, _ = src.OpenFlow(spec)
				close(done)
			})
			<-done
			run := func(n int) {
				done := make(chan struct{})
				d.loop.Post(func() {
					for i := 0; i < n; i++ {
						_ = flow.Send(make([]byte, size))
					}
					close(done)
				})
				<-done
			}
			run(window)
			allocs := mallocsDuring(func() { run(messages) })
			done = make(chan struct{})
			d.loop.Post(func() { d.mgr.Close(); close(done) })
			<-done
			// make([]byte, size) stands in for the application's payload;
			// it is not the session's cost.
			return float64(allocs)/messages - 1
		}()

		run := edgeLoop(t, d, spec, window, size)
		run(4 * window)
		if dropped := d.ClientStats().Dropped; dropped != 0 {
			t.Fatalf("%d drops with %d in flight", dropped, window)
		}
		remote := float64(mallocsDuring(func() { run(messages) })) / messages
		edge := remote - inProc
		t.Logf("allocs per message: %.3f through the edge, %.3f in-process, %.3f for daemon ingress + egress and the client's delivery", remote, inProc, edge)
		if edge > 0.1 {
			t.Fatalf("daemon ingress + egress and the client's delivery allocate %.3f times per message, budget 0.1", edge)
		}
	})
}

// mallocsDuring counts heap allocations made by the whole process while
// fn runs.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestClientRequestsKeepOrderAcrossBatches writes one raw stream holding
// open-flow requests each followed at once by sends on the new flow, in
// a single segment: the batch runner must run them in stream order.
func TestClientRequestsKeepOrderAcrossBatches(t *testing.T) {
	d := startSolo(t)
	var count atomic.Int64
	recv, err := Dial(d.TCPAddr(), 700, func(session.Delivery) { count.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = recv.Close() }()
	conn, err := net.Dial("tcp", d.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	const flows, sendsPerFlow = 60, 3 // 180 deliveries: inside the receiver's 256-message queue
	stream, _ := appendFrame(nil, []byte{msgConnect, 0, 0})
	for id := 1; id <= flows; id++ {
		open := make([]byte, 20)
		open[0], open[1], open[2] = msgOpenFlow, byte(id>>8), byte(id)
		open[4] = 1                   // dst node 1
		open[5], open[6] = 0x02, 0xbc // dst port 700
		stream, _ = appendFrame(stream, open)
		for s := 0; s < sendsPerFlow; s++ {
			stream, _ = appendFrame(stream, []byte{msgSend, byte(id >> 8), byte(id), byte(s)})
		}
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	// Replies: one connect OK, one OK per flow, and no error frame.
	fr := newFrameReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < 1+flows; i++ {
		msg, err := fr.next()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if len(msg) == 0 || msg[0] != msgOK {
			t.Fatalf("reply %d = %q, want OK (a send overtook its open-flow?)", i, msg)
		}
	}
	await(t, 10*time.Second, "every send to be delivered", func() bool { return count.Load() == flows*sendsPerFlow })
	if dropped := d.ClientStats().Dropped; dropped != 0 {
		t.Fatalf("dropped %d", dropped)
	}
}

// TestClientReusedFlowIDClosesFlow opens two flows under one id over the
// raw client protocol: the second replaces the first, whose source port
// must then be free for another client, while the second's stays taken.
func TestClientReusedFlowIDClosesFlow(t *testing.T) {
	d := startSolo(t)
	var mu sync.Mutex
	var ports []wire.Port
	recv, err := Dial(d.TCPAddr(), 700, func(dv session.Delivery) {
		mu.Lock()
		ports = append(ports, dv.SrcPort)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = recv.Close() }()
	conn, err := net.Dial("tcp", d.TCPAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	open := make([]byte, 20)
	open[0], open[2] = msgOpenFlow, 1 // flow id 1
	open[4] = 1                       // dst node 1
	open[5], open[6] = 0x02, 0xbc     // dst port 700
	stream, _ := appendFrame(nil, []byte{msgConnect, 0, 0})
	for range 2 {
		stream, _ = appendFrame(stream, open)
		stream, _ = appendFrame(stream, []byte{msgSend, 0, 1, 'x'})
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < 3; i++ {
		if msg, err := fr.next(); err != nil || len(msg) == 0 || msg[0] != msgOK {
			t.Fatalf("reply %d = %q, %v; want OK", i, msg, err)
		}
	}
	await(t, 10*time.Second, "both sends to be delivered", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(ports) == 2
	})
	if ports[0] == ports[1] {
		t.Fatalf("both flows sent from port %d", ports[0])
	}
	replaced, err := Dial(d.TCPAddr(), ports[0], nil)
	if err != nil {
		t.Fatalf("the replaced flow still holds port %d: %v", ports[0], err)
	}
	_ = replaced.Close()
	if c, err := Dial(d.TCPAddr(), ports[1], nil); err == nil {
		_ = c.Close()
		t.Fatalf("the live flow's port %d was handed to a client", ports[1])
	}
}

// clientScript turns fuzz input into a stream of client requests: each
// record is selector(1) length(1) body(length), the selector choosing
// among the four request kinds that carry a body worth attacking.
func clientScript(script []byte) []byte {
	kinds := [...]byte{msgConnect, msgOpenFlow, msgSend, msgJoin}
	var stream []byte
	for len(script) >= 2 {
		kind, n := kinds[int(script[0])%len(kinds)], min(int(script[1]), len(script)-2)
		stream = appendFrameHeader(stream, 1+n)
		stream = append(stream, kind)
		stream = append(stream, script[2:2+n]...)
		script = script[2+n:]
	}
	return stream
}

// FuzzClientRequest throws arbitrary connect, open-flow, send and join
// bodies at an in-process daemon. It must not panic, and must still
// serve a well-behaved client afterwards.
func FuzzClientRequest(f *testing.F) {
	open := func(flags, proto, k, dissem byte) []byte {
		return []byte{0, 1, 0, 1, 0x02, 0xbc, 0, 0, 0, 0, flags, proto, k, dissem, 0, 0, 0, 0, 0}
	}
	record := func(sel int, body []byte) []byte { return append([]byte{byte(sel), byte(len(body))}, body...) }
	connect := record(0, []byte{0x02, 0xbd})
	send := record(2, []byte{0, 1, 'h', 'i'})
	f.Add(bytes.Join([][]byte{connect, record(1, open(0, 1, 0, 0)), send}, nil))
	f.Add(bytes.Join([][]byte{connect, record(1, open(flowFlagOrdered, 2, 0, 0)), send, send}, nil))
	f.Add(bytes.Join([][]byte{connect, record(1, open(flowFlagFlood, 1, 0, 0)), send}, nil))
	f.Add(bytes.Join([][]byte{connect, record(1, open(0, 3, 2, 0)), send}, nil))
	f.Add(bytes.Join([][]byte{connect, record(1, open(0, 4, 0, 1)), send}, nil))
	f.Add(bytes.Join([][]byte{connect, record(1, open(flowFlagAnycast, 5, 0, 0)), send, record(3, []byte{0, 0, 0, 9})}, nil))
	f.Add(bytes.Join([][]byte{send, record(1, open(0, 1, 0, 0)), connect, connect}, nil))
	f.Add(bytes.Join([][]byte{record(0, nil), record(1, []byte{1}), record(2, []byte{0}), record(3, nil)}, nil))

	d := startSolo(f)
	f.Fuzz(func(t *testing.T, script []byte) {
		conn, err := net.Dial("tcp", d.TCPAddr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Write(clientScript(script)); err != nil {
			t.Fatal(err)
		}
		// Half-close: the daemon reads the whole script, runs it, and
		// closes its side; replies are read to exhaustion on the way.
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Fatalf("daemon did not finish the script: %v", err)
		}
		// The loop is alive and the session layer still admits clients.
		c, err := Dial(d.TCPAddr(), 0, nil)
		if err != nil {
			t.Fatalf("daemon unusable after script %x: %v", script, err)
		}
		_ = c.Close()
	})
}
