package main

// Metric is one named measurement. Bound is the share of the baseline
// median by which the value may worsen before it counts as a regression
// (end-to-end metrics only; per-layer metrics carry none).
type Metric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the six end-to-end metrics every workload reports.
// BENCHMARK.json repeats this table for the driver; TestBenchmarkJSON
// keeps the two in step.
//
// A bound is at least three times the widest first-to-third-quartile
// spread the metric showed over ten runs on any workload (STABILITY.md),
// and at most the 25 % the contract this file is written to allows. The
// three timings sit at that cap: this box is a two-vCPU guest whose speed
// follows its host in stretches that last minutes, which no estimator
// inside a 30-second run takes out (meter.throughput takes out the
// shorter ones). ISSUE.md asked for 10 %; a finer claim than these bounds
// needs the paired, alternating runs of the choosing-metrics guide, which
// cancel the drift. The counts are bounded by what their seeds, not the
// host, make them vary.
//
// ISSUE.md's oneway_p50_us and oneway_p90_us are per-layer metrics here
// (session.oneway_p50_us, session.oneway_p90_us), not gated ones: through
// the chain they follow the host's wake-up latency, and ten identical
// runs inside one quarter of an hour read a median of 140 us for four
// runs on end and 217 us two runs later. No bound the contract allows
// holds that. What the gate keeps of latency is on_time_share.
var endToEnd = []Metric{
	{"setup_s", "s", "lower", 0.25},
	{"msgs_per_s", "msg/s", "higher", 0.25},
	{"cpu_us_per_msg", "us", "lower", 0.25},
	{"on_time_share", "ratio", "higher", 0.03},
	{"allocs_per_msg", "count", "lower", 0.1},
	{"heap_live_mb", "MB", "lower", 0.16},
}

// Workload is one named set of inputs.
type Workload struct {
	Name string
	Why  string
	// run executes the untraced, timed run.
	run func(cfg RunConfig) (*Result, error)
}

var workloads = []Workload{
	{
		Name: "chain3-video-be",
		Why:  "1200-B best-effort video over three real daemons: transport, session, node and wire do all the work, link keeps no state",
		run:  func(cfg RunConfig) (*Result, error) { return runChain(cfg, chainVideoBE, chainHooks{}) },
	},
	{
		Name: "chain3-small-reliable",
		Why:  "eight 64-B reliable ordered flows on the same chain: per-packet cost dominates and link ARQ plus session recovery are stateful",
		run:  func(cfg RunConfig) (*Result, error) { return runChain(cfg, chainSmallReliable, chainHooks{}) },
	},
	{
		Name: "emu-mixed-loss",
		Why:  "14-node virtual-time continent under bursty loss with video, monitoring, control and multicast flows: link recovery, itmsg, netemu and sim work, no sockets",
		run:  runEmuMixed,
	},
	{
		Name: "emu-churn-64",
		Why:  "64 nodes with membership under 5 faults/s and light probe traffic: linkstate, topology, routing, groups and membership work, on_time_share is reroute speed",
		run:  runEmuChurn,
	},
}

func findWorkload(name string) *Workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// RunConfig is one invocation's inputs.
type RunConfig struct {
	Workload string
	Seed     uint64
	// Seconds is the nominal length of the timed phases. Every phase is a
	// fixed message count or a fixed virtual time proportional to it,
	// never a wall-clock deadline, so a faster program finishes sooner.
	Seconds float64
	// Setups is the number of rounds: each builds and warms a fresh world
	// (one setup_s sample) and runs its share of the timed work on it.
	// runRounds, except in the smoke tests and the traced run (1).
	Setups int
	// Scale multiplies the warm-up and the timed work; 1, except in the
	// smoke tests.
	Scale float64
}

// Value is one reported number.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run prints as its last line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	// notes are diagnostics printed above the JSON line.
	notes []string
	// counts are the exact tallies the emulated workloads must repeat
	// for one seed (the smoke test compares them).
	counts map[string]int64
	// diag carries harness-side diagnostics the traced run reports as
	// per-layer metrics (tail latencies, generator lag, event counts).
	diag map[string]float64
}

// layers are the repository's modules plus three pseudo-layers: the Go
// runtime, this harness, and everything else the profile shows (kernel
// entry stubs, net, syscall). Every one has an X.cpu_share.
var layers = []string{
	"wire", "transport", "session", "node", "link", "itmsg", "routing",
	"topology", "linkstate", "groups", "membership", "netemu", "sim",
	"runtime", "harness", "other",
}

// perLayer lists the per-layer metrics of the traced run. A layer a
// workload does not exercise reports 0 (netemu and sim on chain3-*,
// transport on emu-*). They carry no bound.
var perLayer = func() []Metric {
	lo, hi := "lower", "higher"
	ms := []Metric{
		{Name: "wire.marshal_ns", Unit: "ns", Better: lo},
		{Name: "wire.unmarshal_ns", Unit: "ns", Better: lo},
		{Name: "transport.udp_hop_ns", Unit: "ns", Better: lo},
		{Name: "transport.client_send_ns", Unit: "ns", Better: lo},
		{Name: "transport.rx_pkts_per_batch", Unit: "count", Better: hi},
		{Name: "transport.tx_pkts_per_flush", Unit: "count", Better: hi},
		{Name: "transport.tx_bytes_per_payload_byte", Unit: "ratio", Better: lo},
		{Name: "transport.send_dropped", Unit: "count", Better: lo},
		{Name: "transport.recv_unknown", Unit: "count", Better: lo},
		{Name: "transport.handoffs", Unit: "count", Better: lo},
		{Name: "session.send_ns", Unit: "ns", Better: lo},
		{Name: "session.oneway_p50_us", Unit: "us", Better: lo},
		{Name: "session.oneway_p90_us", Unit: "us", Better: lo},
		{Name: "session.oneway_p99_us", Unit: "us", Better: lo},
		{Name: "session.oneway_p999_us", Unit: "us", Better: lo},
		{Name: "session.oneway_samples", Unit: "count", Better: hi},
		{Name: "session.late", Unit: "count", Better: lo},
		{Name: "session.duplicates", Unit: "count", Better: lo},
		{Name: "node.transit_ns", Unit: "ns", Better: lo},
		{Name: "node.handle_self_ns", Unit: "ns", Better: lo},
		{Name: "node.forwarded_per_msg", Unit: "count", Better: lo},
		{Name: "node.duplicates_per_msg", Unit: "count", Better: lo},
		{Name: "node.dropped_noroute", Unit: "count", Better: lo},
		{Name: "node.dropped_ttl", Unit: "count", Better: lo},
		{Name: "link.reliable_cycle_ns", Unit: "ns", Better: lo},
		{Name: "link.retransmissions_per_msg", Unit: "count", Better: lo},
		{Name: "link.requests_per_msg", Unit: "count", Better: lo},
		{Name: "link.acks_per_msg", Unit: "count", Better: lo},
		{Name: "link.recovered_share", Unit: "ratio", Better: hi},
		{Name: "link.send_dropped", Unit: "count", Better: lo},
		{Name: "itmsg.decision_ns", Unit: "ns", Better: lo},
		{Name: "itmsg.drops_per_msg", Unit: "count", Better: lo},
		{Name: "itmsg.backpressure", Unit: "count", Better: lo},
		{Name: "routing.decide_ns", Unit: "ns", Better: lo},
		{Name: "routing.snapshot_publishes", Unit: "count", Better: lo},
		{Name: "topology.spf_full_ns", Unit: "ns", Better: lo},
		{Name: "topology.spf_repair_ns", Unit: "ns", Better: lo},
		{Name: "topology.incremental_share", Unit: "ratio", Better: hi},
		{Name: "linkstate.lsas_per_event", Unit: "count", Better: lo},
		{Name: "linkstate.delta_share", Unit: "ratio", Better: hi},
		{Name: "linkstate.hellos_per_s", Unit: "1/s", Better: lo},
		{Name: "linkstate.down_detections", Unit: "count", Better: lo},
		{Name: "groups.floods_per_event", Unit: "count", Better: lo},
		{Name: "membership.sweep_ns", Unit: "ns", Better: lo},
		{Name: "membership.msgs_per_event", Unit: "count", Better: lo},
		{Name: "netemu.send_ns", Unit: "ns", Better: lo},
		{Name: "netemu.route_cache_hit_share", Unit: "ratio", Better: hi},
		{Name: "sim.timer_ns", Unit: "ns", Better: lo},
		{Name: "sim.events_per_msg", Unit: "count", Better: lo},
		{Name: "runtime.gc_cycles", Unit: "count", Better: lo},
		{Name: "harness.generator_lag_p99_us", Unit: "us", Better: lo},
		{Name: "harness.trace_overhead_share", Unit: "ratio", Better: lo},
		{Name: "ladder.sum_us_per_msg", Unit: "us", Better: lo},
		{Name: "ladder.unattributed_us_per_msg", Unit: "us", Better: lo},
	}
	for _, l := range layers {
		ms = append(ms, Metric{Name: l + ".cpu_share", Unit: "ratio", Better: lo})
	}
	return ms
}()
