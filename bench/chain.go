package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sonet"
)

// chainSpec describes one chain3-* workload: what flows cross the
// three-daemon chain and how much work each phase holds per nominal
// second. Counts are fixed per second of --seconds so the same command
// line always does the same work.
type chainSpec struct {
	flows   int
	size    int
	service sonet.LinkService
	ordered bool
	// warmup is the fixed warm-up message count (part of setup_s).
	warmup int
	// tputPerSecond sizes the closed-loop phase: its message count is
	// this times its share of --seconds, about what this box delivers.
	tputPerSecond int
	// limit is the one-way latency a message must meet to be on time.
	limit time.Duration
}

// mustArrive reports whether the flows' service promises delivery end to
// end, so that an open-loop message that never arrives is a failed
// operation and not only an on-time miss.
func (s chainSpec) mustArrive() bool { return s.service == sonet.Reliable && s.ordered }

var chainVideoBE = chainSpec{
	flows: 1, size: 1200, service: sonet.BestEffort,
	warmup: 30000, tputPerSecond: 57000, limit: 10 * time.Millisecond,
}

var chainSmallReliable = chainSpec{
	flows: 8, size: 64, service: sonet.Reliable, ordered: true,
	warmup: 30000, tputPerSecond: 50000, limit: 10 * time.Millisecond,
}

const (
	// chainWindow is the closed loop's messages in flight.
	chainWindow = 64
	// openRate is the open loop's offered rate in msg/s, a few video
	// streams' worth. ISSUE.md set 10 000. There a message is due every
	// 100 us, about what the chain takes to carry one, so each message
	// meets the one before it somewhere on the path; at 2 000 messages
	// travel alone. Eight alternating runs of chain3-small-reliable in one
	// of the host's slow hours read p50 139–277 us and p90 376–1009 us at
	// 10 000 msg/s against 224–279 and 462–734 at 2 000, and ISSUE.md's own
	// rule for a noisy metric is to lengthen the phase or lower the rate.
	openRate = 2000
	// openWindow caps the open loop's messages in flight. At openRate one
	// is, seldom two; the cap binds only after the host has stalled the
	// guest (for about 470 ms at worst here), when the generator catches
	// up with everything that came due meanwhile. A receiving daemon queues
	// 256 deliveries per client connection and drops the rest, Reliable or
	// not (README.md, "Anomalies"), so a burst let through whole is lost to
	// the harness's own pacing. Held back here, the burst costs what it
	// should: latency, counted from each message's due time.
	openWindow = 192
	// tputShare and latShare split --seconds between the two timed phases.
	// The open loop decides on_time_share and the latency diagnostics; the
	// closed loop has two gated timings to steady.
	tputShare = 0.8
	latShare  = 0.2
	// tputSegment is the closed-loop phase's segment length in messages
	// sent: about 10 ms, eight windows' worth, so that the bursts credits
	// come back in do not show in a segment's rate.
	tputSegment = 512
	// latWindow is the open-loop phase's window length in messages: 50 ms
	// at openRate.
	latWindow = 100
	// drainTimeout is how long a phase waits for stragglers before the
	// messages still outstanding count as never delivered.
	drainTimeout = 2 * time.Second
	recvPort     = 700
	probeFlow    = 0xFFFF
)

// chainNode is what the chain needs from each of its three nodes.
// *sonet.Daemon is one; the traced run puts its own relay in the middle.
type chainNode interface {
	UDPAddr() string
	AddPeer(id sonet.NodeID, addrs ...string) error
	Close()
}

// chainHooks is how the traced run (build tag sonet_layers) instruments
// the chain; the timed run passes none.
type chainHooks struct {
	// middle builds node 2 in place of sonet.StartDaemon.
	middle func(cfg sonet.DaemonConfig, epoch time.Time, messages int) (chainNode, error)
	// spans turns on span recording around the client calls.
	spans bool
	// observe runs a round's timed phases on its warmed, still open
	// world, so counters can be read either side of them.
	observe func(w *chainWorld, phases func())
}

// chainWorld is one built and converged three-daemon chain with a client
// at each end.
type chainWorld struct {
	spec    chainSpec
	epoch   time.Time
	daemons []chainNode
	send    *sonet.RemoteClient
	recv    *sonet.RemoteClient
	flows   []*sonet.RemoteFlow
	probe   *sonet.RemoteFlow
	bufs    [][]byte
	next    []uint32
	// sendLane and recvLane record client-side spans in the traced run.
	sendLane, recvLane *lane

	// credits carries one token per message a phase may still put in
	// flight.
	credits chan struct{}

	mu      sync.Mutex // guards everything below (receiver goroutine vs main)
	check   *checker
	probed  bool
	latFrom []uint32 // per-flow seq from which latency is sampled; nil = off
	lat     *latencyWindows
	onTime  int64
	// recovered counts deliveries some link retransmitted on the way.
	recovered int64
	limitUs   float64
	sendErrs  []string

	delivered atomic.Int64
}

func (w *chainWorld) now() int64 { return int64(time.Since(w.epoch)) }

// buildChain starts daemons 1–2–3 over loopback UDP, connects the two
// clients, opens the flows, waits for a probe to cross (convergence, no
// fixed sleep) and runs the warm-up.
func buildChain(spec chainSpec, seed uint64, warm, capacity int, hooks chainHooks) (*chainWorld, error) {
	w := &chainWorld{
		spec:    spec,
		epoch:   time.Now(),
		credits: make(chan struct{}, openWindow),
		check:   newChecker(),
		limitUs: float64(spec.limit) / 1e3,
	}
	if hooks.spans {
		w.sendLane = newLane("client-send", w.epoch, capacity)
		w.recvLane = newLane("client-recv", w.epoch, capacity)
	}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	links := []sonet.DaemonLink{
		{A: 1, B: 2, Latency: time.Millisecond},
		{A: 2, B: 3, Latency: time.Millisecond},
	}
	for id := sonet.NodeID(1); id <= 3; id++ {
		cfg := sonet.DaemonConfig{
			ID: id, Links: links,
			HelloInterval: 100 * time.Millisecond,
		}
		if id != 2 {
			cfg.BindTCP = "127.0.0.1:0"
		}
		var d chainNode
		var err error
		// A port can be taken between the probe and the bind; try again.
		for try := 0; try < 8; try++ {
			if cfg.BindUDP, err = steeredAddr(id); err != nil {
				break
			}
			if id == 2 && hooks.middle != nil {
				d, err = hooks.middle(cfg, w.epoch, capacity)
			} else {
				d, err = sonet.StartDaemon(cfg)
			}
			if err == nil {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("start daemon %d: %w", id, err)
		}
		w.daemons = append(w.daemons, d)
	}
	for i, d := range w.daemons {
		for j, p := range w.daemons {
			if i == j {
				continue
			}
			if err := d.AddPeer(sonet.NodeID(j+1), p.UDPAddr()); err != nil {
				return nil, fmt.Errorf("add peer: %w", err)
			}
		}
	}
	var err error
	if w.recv, err = sonet.DialDaemon(w.daemons[2].(*sonet.Daemon).TCPAddr(), recvPort, w.onDeliver); err != nil {
		return nil, err
	}
	if w.send, err = sonet.DialDaemon(w.daemons[0].(*sonet.Daemon).TCPAddr(), 0, nil); err != nil {
		return nil, err
	}
	w.send.OnError(w.noteSendErr)
	rng := rand.New(rand.NewPCG(seed, 0x636861696e)) // "chain"
	perFlow := capacity/spec.flows + 1
	for i := 0; i < spec.flows; i++ {
		f, err := w.send.OpenFlow(sonet.FlowSpec{
			To: 3, ToPort: recvPort, Service: spec.service, Ordered: spec.ordered,
		})
		if err != nil {
			return nil, err
		}
		w.flows = append(w.flows, f)
		buf := make([]byte, spec.size)
		for j := range buf {
			buf[j] = byte(rng.Uint32())
		}
		w.bufs = append(w.bufs, buf)
		w.check.flows[uint16(i)] = newFlowCheck(perFlow, spec.size, spec.ordered)
	}
	w.next = make([]uint32, spec.flows)
	if w.probe, err = w.send.OpenFlow(sonet.FlowSpec{To: 3, ToPort: recvPort}); err != nil {
		return nil, err
	}
	if err := w.converge(); err != nil {
		return nil, err
	}
	if lost := w.closedLoop(warm, nil); lost > 0 {
		return nil, fmt.Errorf("warm-up lost %d of %d messages", lost, warm)
	}
	w.mu.Lock()
	w.recovered = 0
	w.mu.Unlock()
	ok = true
	return w, nil
}

// homeShard mirrors how a daemon homes peer id's link sessions on one of
// its data-plane shards (FNV-1a of the id, modulo the shard count); the
// sonet_layers test checks it against the real function.
func homeShard(id sonet.NodeID, shards int) int {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(id&0xff)) * prime
	h = (h ^ uint64(id>>8)) * prime
	return int(h % uint64(shards))
}

// steeredAddr picks a free loopback UDP port for daemon id whose residue
// modulo the shard count is id's home shard. A receiving daemon's kernel
// steers a datagram to shard (source port mod shards); when that is not
// the sender's home shard every frame is handed across shards, which
// costs a reliable flow a quarter of its throughput. With ports left to
// the kernel each run drew one of the two cases at random; the designed
// fast path (arrival shard = home shard) is the one measured.
func steeredAddr(id sonet.NodeID) (string, error) {
	shards := defaultShards()
	probe, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	port := probe.LocalAddr().(*net.UDPAddr).Port
	if err := probe.Close(); err != nil {
		return "", err
	}
	port += (homeShard(id, shards) - port%shards + shards) % shards
	if port > 65535 {
		port -= shards
	}
	return fmt.Sprintf("127.0.0.1:%d", port), nil
}

// converge sends probes until one is delivered: the hello exchange has
// brought both links up and node 1 has a route to node 3.
func (w *chainWorld) converge() error {
	buf := make([]byte, payloadMin)
	deadline := time.Now().Add(10 * time.Second)
	for seq := uint32(0); ; seq++ {
		stampPayload(buf, probeFlow, seq, 0)
		if err := w.probe.Send(buf); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
		w.mu.Lock()
		probed := w.probed
		w.mu.Unlock()
		if probed {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chain did not converge within 10 s")
		}
	}
}

// onDeliver runs on the receiving client's network goroutine.
func (w *chainWorld) onDeliver(d sonet.Delivery) {
	now := w.now()
	w.mu.Lock()
	if len(d.Payload) == payloadMin && binary.BigEndian.Uint16(d.Payload) == probeFlow {
		w.probed = true
		w.mu.Unlock()
		return
	}
	sp := w.recvLane.open("client.deliver", 0)
	_, seq, due, fresh := w.check.verify(d.Payload)
	var flow uint16
	if len(d.Payload) >= payloadMin {
		flow = binary.BigEndian.Uint16(d.Payload)
	}
	if sp >= 0 {
		w.recvLane.spans[sp].msg = msgID(flow, seq)
	}
	if fresh && d.Recovered {
		w.recovered++
	}
	if fresh && w.latFrom != nil && seq >= w.latFrom[flow] {
		us := float64(now-due) / 1e3
		w.lat.add(us)
		if us <= w.limitUs {
			w.onTime++
		}
	}
	w.recvLane.close(sp)
	w.mu.Unlock()
	if fresh {
		w.delivered.Add(1)
		select {
		case w.credits <- struct{}{}:
		default: // tokens were re-issued after a declared loss
		}
	}
}

// sendNext stamps and sends the next message of flow i.
func (w *chainWorld) sendNext(i int, due int64) error {
	w.next[i]++
	stampPayload(w.bufs[i], uint16(i), w.next[i], due)
	sp := w.sendLane.open("client.send", msgID(uint16(i), w.next[i]))
	err := w.flows[i].Send(w.bufs[i])
	w.sendLane.close(sp)
	return err
}

// gate bounds one phase's messages in flight: a send takes a token, a
// fresh delivery returns one.
type gate struct {
	w    *chainWorld
	base int64 // deliveries before the phase
	tick *time.Ticker
	// lastSeen is the delivery count when it last changed, lastMove when
	// that was.
	lastSeen int64
	lastMove time.Time
	// declared counts the messages given up on so the phase could go on.
	declared int64
}

func (w *chainWorld) newGate(window int) *gate {
	for len(w.credits) > 0 {
		<-w.credits
	}
	for i := 0; i < window; i++ {
		w.credits <- struct{}{}
	}
	base := w.delivered.Load()
	return &gate{w: w, base: base, tick: time.NewTicker(drainTimeout / 8), lastSeen: base, lastMove: time.Now()}
}

// acquire takes the token for the phase's sent-th message (counting from
// 0). When nothing has arrived for drainTimeout it declares every message
// still outstanding lost and re-issues their tokens, so one dropped
// datagram cannot hang the run.
func (g *gate) acquire(sent int) {
	for {
		select {
		case <-g.w.credits:
			return
		case <-g.tick.C:
			d := g.w.delivered.Load()
			if d != g.lastSeen {
				g.lastSeen, g.lastMove = d, time.Now()
			}
			if time.Since(g.lastMove) < drainTimeout {
				continue
			}
			out := int64(sent) - (d - g.base) - g.declared
			g.declared += out
			for ; out > 0 && len(g.w.credits) < cap(g.w.credits); out-- {
				g.w.credits <- struct{}{}
			}
			g.lastMove = time.Now()
		}
	}
}

// drain waits until all sent messages have been delivered or nothing has
// arrived for drainTimeout, and returns how many are still missing.
func (g *gate) drain(sent int) int64 {
	g.tick.Stop()
	target := g.base + int64(sent)
	lastSeen, lastMove := g.w.delivered.Load(), time.Now()
	for lastSeen < target && time.Since(lastMove) < drainTimeout {
		time.Sleep(time.Millisecond)
		if d := g.w.delivered.Load(); d != lastSeen {
			lastSeen, lastMove = d, time.Now()
		}
	}
	return target - lastSeen
}

// closedLoop sends n messages round-robin over the flows with at most
// chainWindow in flight, cutting seg (when given) every tputSegment
// sends, then drains. With the window full a send waits for a delivery, so
// a segment's send rate is the chain's delivery rate. It returns how many
// were never delivered.
func (w *chainWorld) closedLoop(n int, seg *segments) int64 {
	g := w.newGate(chainWindow)
	if seg != nil {
		seg.begin()
	}
	for i := 0; i < n; i++ {
		g.acquire(i)
		if err := w.sendNext(i%len(w.flows), w.now()); err != nil {
			w.noteSendErr(err)
		}
		if seg != nil && (i+1)%tputSegment == 0 {
			seg.cut(tputSegment)
		}
	}
	lost := g.drain(n)
	if seg != nil {
		seg.end()
	}
	return lost
}

// openLoop offers n messages at openRate on an absolute schedule
// due_i = t0 + i/rate. A late generator sleeps nothing and catches up,
// with at most openWindow in flight; latency is taken from due_i either
// way, so a stall's cost to the messages queued behind it is counted. It
// appends each send's lateness in microseconds to lagUs, the round's
// on-time share to m, and returns how many messages were never delivered.
func (w *chainWorld) openLoop(n int, m *meter, lagUs *[]float64) int64 {
	g := w.newGate(openWindow)
	w.mu.Lock()
	w.lat = newLatencyWindows(m, latWindow)
	w.onTime = 0
	w.latFrom = make([]uint32, len(w.next))
	for i, seq := range w.next {
		w.latFrom[i] = seq + 1
	}
	w.mu.Unlock()
	defer tightenTimerSlack()()
	interval := float64(time.Second) / float64(openRate)
	t0 := w.now() + int64(time.Millisecond)
	for i := 0; i < n; i++ {
		due := t0 + int64(float64(i)*interval)
		if wait := due - w.now(); wait > 0 {
			pause(time.Duration(wait))
		}
		g.acquire(i)
		*lagUs = append(*lagUs, float64(w.now()-due)/1e3)
		if err := w.sendNext(i%len(w.flows), due); err != nil {
			w.noteSendErr(err)
		}
	}
	lost := g.drain(n)
	w.mu.Lock()
	w.lat.finish()
	w.latFrom = nil
	m.onTime = append(m.onTime, float64(w.onTime)/float64(n))
	w.mu.Unlock()
	return lost
}

// pause blocks the generator's thread in nanosleep(2). time.Sleep wakes on
// the Go netpoller's millisecond grid (measured here: 1.1 ms for any
// request under a millisecond), which at 2 000 msg/s would send the
// messages in twos and threes and add up to a millisecond of the
// generator's own lateness to each; nanosleep burns no CPU while it waits
// and, with the timer slack tightened, overshoots by about 25 µs.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up is absorbed by the next wait
}

// tightenTimerSlack pins the calling goroutine to its thread and sets
// that thread's timer slack to 1 ns for the open loop. The kernel's
// default lets a sleep run 50 µs over to merge wake-ups; measured here, a
// 20 µs nanosleep returns after 87 µs with it and after 35 µs without,
// and every microsecond the generator oversleeps is added to the latency
// of the message it was about to send. The returned function undoes both.
func tightenTimerSlack() (restore func()) {
	const prSetTimerslack = 29
	runtime.LockOSThread()
	// A kernel that refuses leaves the default slack: later sends, same run.
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0)
	return func() {
		_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 0, 0) // 0 = back to the default
		runtime.UnlockOSThread()
	}
}

func (w *chainWorld) noteSendErr(err error) {
	w.mu.Lock()
	if len(w.sendErrs) < 8 {
		w.sendErrs = append(w.sendErrs, err.Error())
	}
	w.mu.Unlock()
}

func (w *chainWorld) close() {
	if w.send != nil {
		_ = w.send.Close()
	}
	if w.recv != nil {
		_ = w.recv.Close()
	}
	for _, d := range w.daemons {
		d.Close()
	}
}

// chainCounts returns one round's message counts: warm-up, closed-loop
// phase, open-loop phase.
func chainCounts(spec chainSpec, cfg RunConfig) (warm, tput, lat int) {
	seconds := cfg.Seconds * cfg.Scale / float64(cfg.Setups)
	warm = max(int(float64(spec.warmup)*cfg.Scale), chainWindow)
	tput = int(float64(spec.tputPerSecond) * seconds * tputShare)
	tput -= tput % tputSegment // 512 is a multiple of every flow count
	lat = int(float64(openRate) * seconds * latShare)
	lat -= lat % spec.flows
	return warm, max(tput, tputSegment), max(lat, spec.flows)
}

// runChain runs cfg.Setups rounds: build and warm a chain (one setup_s
// sample), run the closed-loop and the open-loop phase on it, close it.
func runChain(cfg RunConfig, spec chainSpec, hooks chainHooks) (*Result, error) {
	warm, tputN, latN := chainCounts(spec, cfg)
	res := newResult()
	var (
		m                           meter
		lagUs                       []float64
		lostClosed, lostOpen        int64
		integrity, onTime           int64
		recovered, corrupt, daemonE int64
		heap                        float64
	)
	for round := 0; round < cfg.Setups; round++ {
		start := time.Now()
		w, err := buildChain(spec, cfg.Seed+uint64(round)<<32, warm, warm+tputN+latN, hooks)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		phases := func() {
			lostClosed += w.closedLoop(tputN, &segments{m: &m})
			lostOpen += w.openLoop(latN, &m, &lagUs)
			if round == cfg.Setups-1 {
				heap = heapLiveMB() // the last world, still open
			}
		}
		if hooks.observe != nil {
			hooks.observe(w, phases)
		} else {
			phases()
		}
		w.close()
		runtime.GC() // the next round does not inherit this world as garbage
		integrity += w.check.integrityFailures()
		corrupt += w.check.corrupt
		onTime += w.onTime
		recovered += w.recovered
		daemonE += int64(len(w.sendErrs))
		for _, e := range w.sendErrs {
			res.notef("round %d: daemon error: %s", round, e)
		}
	}
	rounds := int64(cfg.Setups)
	res.Attempted = rounds * int64(tputN+latN)
	// With at most openWindow messages in flight no queue on the path can
	// overflow, so a message that never arrives was lost by the overlay.
	// Best effort is allowed to; a service that promises delivery is not.
	res.Failed = integrity + lostClosed
	if spec.mustArrive() {
		res.Failed += lostOpen
	}
	res.Correct = res.Failed == 0 && daemonE == 0
	m.fill(res)
	res.set("heap_live_mb", heap)
	// The per-layer counters span both phases, so their per-message
	// ratios divide by both phases' deliveries.
	res.diag["delivered"] += float64(rounds*int64(latN) - lostOpen)
	res.diag["late"] = float64(rounds*int64(latN) - lostOpen - onTime)
	res.diag["recovered"] = float64(recovered)
	res.diag["generator_lag_p99_us"] = quantile(lagUs, 0.99)
	res.notef("%d rounds of %d msgs closed loop (%d in flight, %d never delivered) and %d msgs open loop at %d msg/s (%d never delivered, %d on time within %v, generator lag p99 %.0f us)",
		rounds, tputN, chainWindow, lostClosed, latN, openRate, lostOpen, onTime, spec.limit, res.diag["generator_lag_p99_us"])
	res.notef("integrity: %d corrupt, %d duplicate or reordered, %d daemon errors", corrupt, integrity-corrupt, daemonE)
	return res, nil
}
