package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"sonet"
)

// emuFlowSpec is one application flow of an emulated workload.
type emuFlowSpec struct {
	class string
	src   sonet.NodeID
	// dst lists the receivers: one node for unicast, the static group
	// members for multicast.
	dst       []sonet.NodeID
	group     sonet.GroupID
	size      int
	perSecond int
	// flow carries the service selection; the harness fills in the
	// destination.
	flow sonet.FlowSpec
	// mustArrive marks flows whose service promises delivery under this
	// workload's faults: a message of theirs that never arrives is a
	// failed operation, not only an on-time miss.
	mustArrive bool
}

// emuSpec describes one emu-* workload.
type emuSpec struct {
	links func() []sonet.Link
	opts  []sonet.Option
	flows []emuFlowSpec
	// joiners host clients that join and leave dynamicGroup on script.
	joiners      []sonet.NodeID
	dynamicGroup sonet.GroupID
	// faults expands the seed into the timed phase's fault script.
	faults func(rng *rand.Rand, span time.Duration) []fault
	limit  time.Duration
	// warmup is the fixed virtual time of warm-up traffic (part of
	// setup_s); virtualPerSecond is how much virtual time the timed
	// phases cover per nominal second, about what this box simulates;
	// maxRound, when set, caps one world's timed phase.
	warmup           time.Duration
	virtualPerSecond float64
	maxRound         time.Duration
}

// fault is one scripted event at a virtual-time offset into the timed
// phase.
type fault struct {
	at   time.Duration
	name string
	do   func(w *emuWorld) error
}

const (
	// emuSlice is the virtual time per throughput segment: 1.5–3 ms of
	// wall-clock time.
	emuSlice = 20 * time.Millisecond
	// emuDrain is the virtual time allowed for stragglers after the last
	// send of a phase.
	emuDrain = 2 * time.Second
	// convergeLimit is the virtual time a new world gets to carry a first
	// message from every flow to every receiver.
	convergeLimit = 10 * time.Second
)

type emuFlow struct {
	spec     emuFlowSpec
	id       uint16
	flow     *sonet.Flow
	fill     []byte
	next     uint32
	interval time.Duration
	// timedFrom is the first sequence number of the timed phase.
	timedFrom uint32
	checks    []*flowCheck
	// stop ends the flow's current pump.
	stop func()
}

// emuWorld is one built and warmed virtual-time overlay.
type emuWorld struct {
	spec     emuSpec
	net      *sonet.Network
	flows    []*emuFlow
	clients  map[sonet.NodeID]*sonet.Client
	checkers map[sonet.NodeID]*checker
	static   map[sonet.NodeID]bool
	limitUs  float64

	// Timed-phase tallies; everything is single-threaded in virtual time.
	expected   int64
	delivered  int64
	recovered  int64
	onTime     int64
	refused    int64
	lat        *latencyWindows
	everyFirst int // (flow, receiver) pairs that have seen a delivery

	// lane records harness-side spans in the traced run (nil otherwise).
	lane *lane
}

// buildEmu builds the overlay, attaches a receiver client on every
// destination node and a sender per flow, then runs warm-up traffic
// until every receiver has heard from every flow and the fixed warm-up
// time has passed.
func buildEmu(spec emuSpec, seed uint64, warm, span time.Duration) (*emuWorld, error) {
	rng := rand.New(rand.NewPCG(seed, 0x656d75)) // "emu"
	net, err := sonet.New(seed, spec.links(), spec.opts...)
	if err != nil {
		return nil, err
	}
	w := &emuWorld{
		spec:     spec,
		net:      net,
		clients:  make(map[sonet.NodeID]*sonet.Client),
		checkers: make(map[sonet.NodeID]*checker),
		static:   make(map[sonet.NodeID]bool),
		limitUs:  float64(spec.limit) / 1e3,
	}
	receiver := func(at sonet.NodeID) error {
		if w.clients[at] != nil {
			return nil
		}
		c, err := net.Connect(at, recvPort)
		if err != nil {
			return err
		}
		ck := newChecker()
		w.clients[at], w.checkers[at] = c, ck
		c.OnDeliver(func(d sonet.Delivery) { w.onDeliver(at, ck, d) })
		return nil
	}
	pairs := 0
	for i, fs := range spec.flows {
		f := &emuFlow{spec: fs, id: uint16(i), interval: time.Second / time.Duration(fs.perSecond)}
		capacity := int((convergeLimit+warm+span)/f.interval) + 2
		for _, at := range fs.dst {
			if err := receiver(at); err != nil {
				return nil, err
			}
			w.static[at] = true
			if fs.group != 0 {
				w.clients[at].Join(fs.group)
			}
			fc := newFlowCheck(capacity, fs.size, fs.flow.Ordered)
			fc.dupOK = !fs.flow.Ordered
			w.checkers[at].flows[f.id] = fc
			f.checks = append(f.checks, fc)
			pairs++
		}
		if fs.group != 0 && fs.group == spec.dynamicGroup {
			for _, at := range spec.joiners {
				if err := receiver(at); err != nil {
					return nil, err
				}
				jc := newFlowCheck(capacity, fs.size, fs.flow.Ordered)
				jc.dupOK = !fs.flow.Ordered
				w.checkers[at].flows[f.id] = jc
			}
		}
		src, err := net.Connect(fs.src, 0)
		if err != nil {
			return nil, err
		}
		sel := fs.flow
		sel.ToPort, sel.Group = recvPort, fs.group
		if fs.group == 0 {
			sel.To = fs.dst[0]
		}
		if f.flow, err = src.OpenFlow(sel); err != nil {
			return nil, err
		}
		f.fill = make([]byte, fs.size)
		for j := range f.fill {
			f.fill[j] = byte(rng.Uint32())
		}
		w.flows = append(w.flows, f)
	}
	// Convergence: warm-up traffic flows from the start; group state and
	// routes are up when every (flow, receiver) pair has seen a message.
	w.pumpAll(convergeLimit + warm)
	for waited := time.Duration(0); w.everyFirst < pairs; waited += 100 * time.Millisecond {
		if waited >= convergeLimit {
			net.Close()
			return nil, fmt.Errorf("only %d of %d flow-receiver pairs converged in %v virtual", w.everyFirst, pairs, convergeLimit)
		}
		net.Run(100 * time.Millisecond)
	}
	net.Run(warm)
	w.stopPumps()
	net.Run(emuDrain)
	return w, nil
}

// roundSpan is the virtual time of one round's timed phase: the run's
// total split over its rounds, whole slices, at most spec.maxRound.
func roundSpan(spec emuSpec, cfg RunConfig) time.Duration {
	total := cfg.Seconds * cfg.Scale * spec.virtualPerSecond * float64(time.Second)
	span := time.Duration(total / float64(cfg.Setups)).Truncate(emuSlice)
	if spec.maxRound > 0 {
		span = min(span, spec.maxRound)
	}
	return max(span, emuSlice)
}

// pumpAll starts every flow sending at its rate for span of virtual
// time, staggered so flows do not fire in the same instant.
func (w *emuWorld) pumpAll(span time.Duration) {
	for i, f := range w.flows {
		f := f
		left := int(span / f.interval)
		var fire func()
		fire = func() {
			if left <= 0 {
				return
			}
			left--
			w.sendNext(f)
			w.net.RunAt(f.interval, fire)
		}
		f.stop = func() { left = 0 }
		w.net.RunAt(f.interval*time.Duration(i+1)/time.Duration(len(w.flows)+1), fire)
	}
}

func (w *emuWorld) stopPumps() {
	for _, f := range w.flows {
		f.stop()
	}
}

// sendNext sends flow f's next message. The payload is a fresh buffer:
// a reliable flow keeps what it was handed for end-to-end recovery.
func (w *emuWorld) sendNext(f *emuFlow) {
	f.next++
	buf := make([]byte, len(f.fill))
	copy(buf, f.fill)
	stampPayload(buf, f.id, f.next, int64(w.net.Now()))
	if f.timedFrom != 0 {
		w.expected += int64(len(f.spec.dst))
	}
	sp := w.lane.open("client.send", msgID(f.id, f.next))
	err := f.flow.Send(buf)
	w.lane.close(sp)
	if err != nil {
		w.refused++
	}
}

func (w *emuWorld) onDeliver(at sonet.NodeID, ck *checker, d sonet.Delivery) {
	sp := w.lane.open("client.deliver", 0)
	defer w.lane.close(sp)
	fc, seq, _, fresh := ck.verify(d.Payload)
	if !fresh || !w.static[at] {
		return
	}
	f := w.flows[binary.BigEndian.Uint16(d.Payload)]
	if sp >= 0 {
		w.lane.spans[sp].msg = msgID(f.id, seq)
	}
	if fc.delivered.Load() == 1 {
		w.everyFirst++
	}
	if f.timedFrom == 0 || seq < f.timedFrom {
		return
	}
	w.delivered++
	if d.Recovered {
		w.recovered++
	}
	us := float64(d.Latency) / 1e3
	w.lat.add(us)
	if us <= w.limitUs {
		w.onTime++
	}
}

// classTotals sums one flow class (video, monitor, …) over a run.
type classTotals struct{ expected, delivered, dups, reordered int64 }

// emuTotals sums the rounds of one run.
type emuTotals struct {
	classes                        map[string]*classTotals
	corrupt                        int64
	m                              meter
	expected, delivered, recovered int64
	onTime, refused                int64
	integrity, mustLost            int64
	faults                         int
	virtual                        time.Duration
	faultErrs                      []string
}

// timedPhase runs one round's timed phase: fixed virtual time in
// one-second slices with the fault script applied, then a drain.
func (w *emuWorld) timedPhase(span time.Duration, seed uint64, t *emuTotals) {
	var script []fault
	if w.spec.faults != nil {
		script = w.spec.faults(rand.New(rand.NewPCG(seed, 0x6661756c74)), span) // "fault"
	}
	perSecond := 0
	for _, f := range w.flows {
		f.timedFrom = f.next + 1
		perSecond += f.spec.perSecond * len(f.spec.dst)
	}
	w.lat = newLatencyWindows(&t.m, perSecond)
	for _, ev := range script {
		ev := ev
		w.net.RunAt(ev.at, func() {
			if err := ev.do(w); err != nil && len(t.faultErrs) < 8 {
				t.faultErrs = append(t.faultErrs, fmt.Sprintf("%s at %v: %v", ev.name, ev.at, err))
			}
		})
	}
	w.pumpAll(span)
	seg := segments{m: &t.m}
	seg.begin()
	last := w.delivered
	for at := time.Duration(0); at < span; at += emuSlice {
		sp := w.lane.open("emu.slice", 0)
		w.net.Run(emuSlice)
		w.lane.close(sp)
		seg.cut(w.delivered - last)
		last = w.delivered
	}
	seg.end()
	w.net.Run(emuDrain)
	w.lat.finish()

	if t.classes == nil {
		t.classes = make(map[string]*classTotals)
	}
	for _, ck := range w.checkers {
		t.integrity += ck.integrityFailures()
		t.corrupt += ck.corrupt
	}
	for _, f := range w.flows {
		c := t.classes[f.spec.class]
		if c == nil {
			c = &classTotals{}
			t.classes[f.spec.class] = c
		}
		sent := int64(f.next - f.timedFrom + 1)
		for _, fc := range f.checks {
			got := fc.deliveredFrom(f.timedFrom)
			if f.spec.mustArrive {
				t.mustLost += sent - got
			}
			c.expected += sent
			c.delivered += got
			c.dups += fc.dups
			c.reordered += fc.reordered
		}
	}
	t.m.onTime = append(t.m.onTime, float64(w.onTime)/float64(w.expected))
	t.expected += w.expected
	t.delivered += w.delivered
	t.recovered += w.recovered
	t.onTime += w.onTime
	t.refused += w.refused
	t.faults += len(script)
	t.virtual += span
}

// emuHooks is how the traced run instruments an emulated workload.
type emuHooks struct {
	// observe runs a round's timed phase on its warmed, still open world.
	observe func(w *emuWorld, phase func())
}

// runEmu runs cfg.Setups rounds, each a replay of the one world the seed
// describes: build and warm it (one setup_s sample), run the timed phase on
// it, close it. Virtual time makes the replays identical in everything but
// how long the host let each slice take (meter.throughput), and a replay
// that delivers another count in any slice is a failed run.
func runEmu(cfg RunConfig, spec emuSpec, hooks emuHooks) (*Result, error) {
	span := roundSpan(spec, cfg)
	res := newResult()
	var t emuTotals
	t.m.replayed = true
	var heap float64
	for round := 0; round < cfg.Setups; round++ {
		start := time.Now()
		w, err := buildEmu(spec, cfg.Seed, time.Duration(float64(spec.warmup)*cfg.Scale), span)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", round, err)
		}
		t.m.setups = append(t.m.setups, time.Since(start).Seconds())
		phase := func() {
			w.timedPhase(span, cfg.Seed, &t)
			if round == cfg.Setups-1 {
				heap = heapLiveMB() // the last world, still open
			}
		}
		if hooks.observe != nil {
			hooks.observe(w, phase)
		} else {
			phase()
		}
		w.net.Close()
		runtime.GC() // the next round does not inherit this world as garbage
	}
	res.Attempted = t.expected
	res.Failed = t.integrity + t.mustLost
	res.Correct = res.Failed == 0 && len(t.faultErrs) == 0 && t.m.replaysAgree()
	t.m.fill(res)
	res.set("heap_live_mb", heap)
	res.counts = map[string]int64{
		"expected": t.expected, "delivered": t.delivered,
		"recovered": t.recovered, "on_time": t.onTime,
	}
	res.diag["recovered"] = float64(t.recovered)
	res.diag["late"] = float64(t.delivered - t.onTime)
	res.diag["fault_events"] = float64(t.faults)
	res.diag["virtual_s"] = t.virtual.Seconds()
	res.notef("%d replays of %v virtual, %d fault events: %d deliveries expected, %d delivered, %d recovered, %d on time within %v, %d sends refused",
		cfg.Setups, span, t.faults, t.expected, t.delivered, t.recovered, t.onTime, spec.limit, t.refused)
	for _, class := range sortedNames(t.classes) {
		c := t.classes[class]
		res.notef("  %-8s %8d of %8d delivered, %d duplicates, %d reordered", class, c.delivered, c.expected, c.dups, c.reordered)
	}
	res.notef("integrity: %d failures (%d corrupt; duplicates on at-least-once flows are counted above, not here); %d never delivered on must-arrive flows; fault errors: %v; replays agree: %v",
		t.integrity, t.corrupt, t.mustLost, t.faultErrs, t.m.replaysAgree())
	return res, nil
}
