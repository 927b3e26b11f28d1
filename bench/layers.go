//go:build sonet_layers

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"sonet"
	"sonet/internal/core"
	"sonet/internal/link"
	"sonet/internal/linkstate"
	"sonet/internal/metrics"
	"sonet/internal/node"
	"sonet/internal/session"
	"sonet/internal/sim"
	"sonet/internal/topology"
	"sonet/internal/transport"
	"sonet/internal/wire"
)

// tracedShare is the part of --seconds each of the traced run's two
// passes gets (an untraced reference, then the traced pass), so a traced
// run costs about what a timed run does.
const tracedShare = 0.4

// outDir receives the Chrome trace and the CPU profile; it sits inside
// the benchmark's own directory and is ignored by git.
const outDir = "out"

// peek reads an unexported field of a sonet value. The timed run drives
// the overlay through package sonet alone, and the public types keep
// their internals private; the traced run reads counters off the very
// same worlds instead of building look-alikes, and this is the one place
// it reaches through. A renamed field breaks only this build tag.
func peek[T any](structPtr any, field string) T {
	v := reflect.ValueOf(structPtr).Elem().FieldByName(field)
	if !v.IsValid() {
		panic(fmt.Sprintf("bench: %T has no field %q any more", structPtr, field))
	}
	return *(*T)(unsafe.Pointer(v.UnsafeAddr()))
}

// tally is a flat set of counters read before and after the timed phases.
type tally map[string]float64

// since returns t − before, clamped at zero: a node restarted by the fault
// script starts its counters again.
func (t tally) since(before tally) tally {
	d := make(tally, len(t))
	for k, v := range t {
		d[k] = max(v-before[k], 0)
	}
	return d
}

func (t tally) addNode(st node.Stats) {
	t["node.forwarded"] += float64(st.Forwarded)
	t["node.duplicates"] += float64(st.Duplicates)
	t["node.dropped_noroute"] += float64(st.DroppedNoRoute)
	t["node.dropped_ttl"] += float64(st.DroppedTTL)
}

func (t tally) addLink(st link.Stats) {
	t["link.data_sent"] += float64(st.DataSent)
	t["link.retransmissions"] += float64(st.Retransmissions)
	t["link.requests"] += float64(st.Requests)
	t["link.acks"] += float64(st.Acks)
	t["link.send_dropped"] += float64(st.SendDropped)
}

func (t tally) addLinkState(st linkstate.Stats) {
	t["linkstate.hellos"] += float64(st.HellosSent)
	t["linkstate.lsas"] += float64(st.LSAsSent)
	t["linkstate.delta_lsas"] += float64(st.DeltaLSAsSent)
	t["linkstate.down_detections"] += float64(st.DownDetections)
}

func (t tally) addWire(ws metrics.WireSnapshot) {
	t["wire.recv_batches"] += float64(ws.RecvBatches)
	t["wire.recv_packets"] += float64(ws.RecvPackets)
	t["wire.send_batches"] += float64(ws.SendBatches)
	t["wire.send_packets"] += float64(ws.SendPackets)
	t["wire.send_bytes"] += float64(ws.SendBytes)
	t["wire.send_dropped"] += float64(ws.SendDropped)
	t["wire.recv_unknown"] += float64(ws.RecvUnknown)
	t["wire.handoffs"] += float64(ws.Handoffs)
}

func (t tally) addSched(ss metrics.SchedSnapshot) {
	t["itmsg.drops"] += float64(ss.Dropped())
	t["itmsg.backpressure"] += float64(ss.Backpressure)
}

func (t tally) addProcess() {
	spf := topology.SPFStatsSnapshot()
	t["topology.full"] = float64(spf.Runs)
	t["topology.incremental"] = float64(spf.Incrementals)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t["runtime.gc_cycles"] = float64(ms.NumGC)
}

// chainTally reads the two end daemons (through their public wrapper's
// inner *transport.Daemon) and the traced relay.
func chainTally(w *chainWorld, relay *tracedRelay) tally {
	t := make(tally)
	for _, i := range []int{0, 2} {
		d := peek[*transport.Daemon](w.daemons[i].(*sonet.Daemon), "inner")
		t.addNode(d.NodeStats())
		t.addWire(d.WireStats())
		t.addSched(d.SchedStats())
		if pl := d.DataPlane(); pl != nil && pl.Snapshot() != nil {
			t["routing.snapshot_publishes"] += float64(pl.Snapshot().Version)
		}
		// Link-state and session counters belong to the control loop.
		loop := peek[*sim.Loop](d, "loop")
		done := make(chan struct{})
		loop.Post(func() {
			defer close(done)
			t.addLinkState(d.Node().LinkStateManager().Stats())
			mgr := peek[*session.Manager](d, "mgr")
			if c := peek[map[wire.Port]*session.Client](mgr, "clients")[recvPort]; c != nil {
				t["session.late"] += float64(c.Stats().Late)
				t["session.duplicates"] += float64(c.Stats().Duplicates)
			}
		})
		<-done
	}
	// The link protocols of the end daemons live on their shard engines,
	// which expose no counters; the relay terminates both links and is
	// where the chain's link-level numbers are read.
	relay.tallyInto(t)
	t.addProcess()
	return t
}

// emuTally reads every node of the emulated world.
func emuTally(w *emuWorld) tally {
	t := make(tally)
	s := peek[*core.Simple](w.net, "sim")
	for _, id := range s.Graph.Nodes() {
		n := s.Node(id)
		if n == nil {
			continue
		}
		t.addNode(n.Stats())
		t.addLinkState(n.LinkStateManager().Stats())
		t.addSched(n.SchedStats())
		for _, lid := range s.Graph.Incident(id) {
			if l, ok := s.Graph.Link(lid); ok {
				nb, _ := l.Other(id)
				for _, st := range n.LinkStats(nb) {
					t.addLink(st)
				}
			}
		}
		if m := n.Membership(); m != nil {
			ms := m.Stats()
			t["membership.msgs"] += float64(ms.UpdatesSent + ms.DigestsSent + ms.SyncsSent)
		}
	}
	for _, c := range w.clients {
		t["session.late"] += float64(c.Stats().Late)
		t["session.duplicates"] += float64(c.Stats().Duplicates)
	}
	rc := s.Net.RouteCacheStats()
	t["netemu.cache_hits"] = float64(rc.Hits)
	t["netemu.cache_misses"] = float64(rc.Misses)
	t["sim.events"] = float64(s.Sched.EventsRun())
	t.addProcess()
	return t
}

func emuSendsPerSecond(spec emuSpec) int {
	n := 0
	for _, f := range spec.flows {
		n += f.perSecond * len(f.dst)
	}
	return n
}

// runTraced is the traced run: an untraced reference pass, the traced
// pass under a CPU profile with counters read around it, and the ladder.
// Its result carries the per-layer metrics only.
func runTraced(wl *Workload, cfg RunConfig) (*Result, error) {
	short := cfg
	short.Seconds = cfg.Seconds * tracedShare
	short.Setups = 1
	ref, err := wl.run(short)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(outDir, "cpu-"+wl.Name+".pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer prof.Close()

	// Counters are read around each round's timed phases, with the CPU
	// profile running only between the two reads.
	delta := make(tally)
	var lanes []*lane
	timed := func(read func() tally, phases func()) {
		before := read()
		if err := pprof.StartCPUProfile(prof); err != nil {
			panic(err) // only fails when a profile is already running: a harness bug
		}
		phases()
		pprof.StopCPUProfile()
		for k, v := range read().since(before) {
			delta[k] += v
		}
	}
	var traced *Result
	switch wl.Name {
	case "chain3-video-be", "chain3-small-reliable":
		spec := chainVideoBE
		if wl.Name == "chain3-small-reliable" {
			spec = chainSmallReliable
		}
		var relay *tracedRelay
		traced, err = runChain(short, spec, chainHooks{
			middle: relayHook(&relay),
			spans:  true,
			observe: func(w *chainWorld, phases func()) {
				timed(func() tally { return chainTally(w, relay) }, phases)
				// Read after runChain returns, when the world is closed
				// and the lanes' goroutines have ended.
				lanes = []*lane{w.sendLane, relay.lane, w.recvLane}
			},
		})
	default:
		spec := emuMixedLoss
		if wl.Name == "emu-churn-64" {
			spec = emuChurn64
		}
		traced, err = runEmu(short, spec, emuHooks{observe: func(w *emuWorld, phase func()) {
			w.lane = newLane("emu", time.Now(), 4*int(roundSpan(spec, short)/time.Second)*emuSendsPerSecond(spec))
			timed(func() tally { return emuTally(w) }, phase)
			lanes = []*lane{w.lane}
		}})
	}
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	// steeredAddr places the daemons' ports by a copy of wire.HomeShard. If
	// the two part ways every frame crosses shards, here and in the timed
	// run alike, and the timed run has no public counter to notice by.
	if h := delta["wire.handoffs"]; h != 0 {
		return nil, fmt.Errorf("%.0f frames were handed across shards: the chain's steered ports (chain.go, homeShard) no longer match the daemons' peer homing", h)
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}

	out := newResult()
	out.Correct, out.Attempted, out.Failed = traced.Correct, traced.Attempted, traced.Failed
	out.notes = append(out.notes, traced.notes...)
	spec := ladderFor(wl.Name)
	if err := runLadder(spec, out); err != nil {
		return nil, err
	}
	spans := sumSpans(lanes...)
	fillCounters(out, spec, delta, traced, spans)
	out.set("harness.trace_overhead_share",
		1-traced.Metrics["msgs_per_s"].Value/ref.Metrics["msgs_per_s"].Value)
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		out.set(l+".cpu_share", shares[l])
	}
	reportLadder(out, spec, traced, delta)

	tracePath := filepath.Join(outDir, "trace-"+wl.Name+".json")
	if err := writeChromeTrace(tracePath, lanes...); err != nil {
		return nil, err
	}
	out.notef("spans (count, mean ns, mean self ns):")
	for _, name := range sortedNames(spans) {
		s := spans[name]
		out.notef("  %-44s %9d %10.0f %10.0f", name, s.count, s.meanNs(), s.meanSelfNs())
	}
	out.notef("traced pass end to end: %.0f msg/s, %.2f us CPU/msg (reference pass %.0f msg/s); Chrome trace in bench/%s, CPU profile in bench/%s",
		traced.Metrics["msgs_per_s"].Value, traced.Metrics["cpu_us_per_msg"].Value,
		ref.Metrics["msgs_per_s"].Value, tracePath, profPath)
	return out, nil
}

// fillCounters turns the counter deltas, the traced pass's diagnostics and
// the spans into per-layer metrics.
func fillCounters(out *Result, spec ladderSpec, d tally, traced *Result, spans map[string]spanSum) {
	msgs := max(traced.diag["delivered"], 1)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	// A workload that scripts no faults has one "event": its start.
	events := max(traced.diag["fault_events"], 1)

	out.set("transport.client_send_ns", spans["client.send"].meanNs())
	out.set("transport.rx_pkts_per_batch", ratio(d["wire.recv_packets"], d["wire.recv_batches"]))
	out.set("transport.tx_pkts_per_flush", ratio(d["wire.send_packets"], d["wire.send_batches"]))
	// Three daemons send each message twice (1→2, 2→3), so payload bytes
	// on the wire are two per byte delivered.
	out.set("transport.tx_bytes_per_payload_byte", ratio(d["wire.send_bytes"], 2*msgs*float64(spec.payload)))
	out.set("transport.send_dropped", d["wire.send_dropped"])
	out.set("transport.recv_unknown", d["wire.recv_unknown"])
	out.set("transport.handoffs", d["wire.handoffs"])

	out.set("session.oneway_p50_us", traced.diag["oneway_p50_us"])
	out.set("session.oneway_p90_us", traced.diag["oneway_p90_us"])
	out.set("session.oneway_p99_us", traced.diag["oneway_p99_us"])
	out.set("session.oneway_p999_us", traced.diag["oneway_p999_us"])
	out.set("session.oneway_samples", traced.diag["oneway_samples"])
	out.set("session.late", d["session.late"])
	out.set("session.duplicates", d["session.duplicates"])

	out.set("node.handle_self_ns", spans["node.handle"].meanSelfNs())
	out.set("node.forwarded_per_msg", d["node.forwarded"]/msgs)
	out.set("node.duplicates_per_msg", d["node.duplicates"]/msgs)
	out.set("node.dropped_noroute", d["node.dropped_noroute"])
	out.set("node.dropped_ttl", d["node.dropped_ttl"])

	out.set("link.retransmissions_per_msg", d["link.retransmissions"]/msgs)
	out.set("link.requests_per_msg", d["link.requests"]/msgs)
	out.set("link.acks_per_msg", d["link.acks"]/msgs)
	out.set("link.recovered_share", traced.diag["recovered"]/msgs)
	out.set("link.send_dropped", d["link.send_dropped"])

	out.set("itmsg.drops_per_msg", d["itmsg.drops"]/msgs)
	out.set("itmsg.backpressure", d["itmsg.backpressure"])
	out.set("routing.snapshot_publishes", d["routing.snapshot_publishes"])
	out.set("topology.incremental_share", ratio(d["topology.incremental"], d["topology.incremental"]+d["topology.full"]))

	out.set("linkstate.lsas_per_event", d["linkstate.lsas"]/events)
	out.set("linkstate.delta_share", ratio(d["linkstate.delta_lsas"], d["linkstate.lsas"]))
	seconds := traced.diag["virtual_s"]
	if seconds == 0 {
		seconds = traced.diag["wall_s"]
	}
	out.set("linkstate.hellos_per_s", ratio(d["linkstate.hellos"], seconds))
	out.set("linkstate.down_detections", d["linkstate.down_detections"])
	out.set("membership.msgs_per_event", d["membership.msgs"]/events)
	out.set("netemu.route_cache_hit_share", ratio(d["netemu.cache_hits"], d["netemu.cache_hits"]+d["netemu.cache_misses"]))
	out.set("sim.events_per_msg", d["sim.events"]/msgs)
	out.set("runtime.gc_cycles", d["runtime.gc_cycles"])
	out.set("harness.generator_lag_p99_us", traced.diag["generator_lag_p99_us"])
}

// reportLadder prints the ladder beside the measured whole. Each row is a
// rung's cost times how often one delivered message climbs it; what the
// rungs do not add up to is the unattributed remainder, its own row.
func reportLadder(out *Result, spec ladderSpec, traced *Result, d tally) {
	msgs := max(traced.diag["delivered"], 1)
	v := func(name string) float64 { return out.Metrics[name].Value }
	type row struct {
		rung  string
		ns    float64
		times float64
	}
	hops := d["node.forwarded"] / msgs // link crossings per delivered message
	rows := []row{{"session.send_ns", v("session.send_ns"), 1}}
	if spec.sockets {
		rows = append(rows,
			row{"transport.client_send_ns", v("transport.client_send_ns"), 1},
			row{"transport.udp_hop_ns", v("transport.udp_hop_ns"), hops},
			row{"node.transit_ns", v("node.transit_ns"), 1},
			row{"wire.marshal_ns (origin)", v("wire.marshal_ns"), 1},
			row{"wire.unmarshal_ns (destination)", v("wire.unmarshal_ns"), 1})
	} else {
		rows = append(rows,
			row{"netemu.send_ns", v("netemu.send_ns"), hops},
			row{"node.transit_ns", v("node.transit_ns"), max(hops-1, 0)},
			row{"wire.marshal_ns (origin)", v("wire.marshal_ns"), 1},
			row{"wire.unmarshal_ns (destination)", v("wire.unmarshal_ns"), 1},
			row{"sim.timer_ns", v("sim.timer_ns"), v("sim.events_per_msg")})
	}
	if spec.proto == wire.LPReliable {
		rows = append(rows, row{"link.reliable_cycle_ns", v("link.reliable_cycle_ns"), hops})
	}
	whole := traced.Metrics["cpu_us_per_msg"].Value
	var sum float64
	out.notef("ladder vs measured whole (per delivered message, traced pass):")
	out.notef("  %-34s %10s %8s %10s", "rung", "ns", "times", "us/msg")
	for _, r := range rows {
		us := r.ns * r.times / 1e3
		sum += us
		out.notef("  %-34s %10.0f %8.2f %10.3f", r.rung, r.ns, r.times, us)
	}
	out.notef("  %-34s %10s %8s %10.3f", "ladder sum", "", "", sum)
	out.notef("  %-34s %10s %8s %10.3f", "unattributed remainder", "", "", whole-sum)
	out.notef("  %-34s %10s %8s %10.3f", "measured cpu_us_per_msg", "", "", whole)
	out.set("ladder.sum_us_per_msg", sum)
	out.set("ladder.unattributed_us_per_msg", whole-sum)
}

// cpuShares sums the profile's flat time by package with
// `go tool pprof -top` and folds packages into layers.
func cpuShares(profPath string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms", profPath)
	cmd.Stderr = &stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	byLayer := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(outBytes))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			continue
		}
		byLayer[layerOf(strings.Join(fields[5:], " "))] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: profile %s holds no samples", profPath)
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, nil
}

// layerOf maps a profiled function to the layer whose package holds it.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "sonet/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	switch {
	case !strings.ContainsAny(fn, "./"):
		return "runtime" // assembly helpers: aeshashbody, memeqbody, …
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "sonet/bench."):
		return "harness"
	case strings.HasPrefix(fn, "internal/runtime/syscall."):
		return "other" // kernel time behind socket calls
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
