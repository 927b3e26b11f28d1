package chaos

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func TestTopologyRegistry(t *testing.T) {
	names := TopologyNames()
	if len(names) == 0 {
		t.Fatal("no topologies registered")
	}
	for _, name := range names {
		topo, ok := TopologyByName(name)
		if !ok {
			t.Fatalf("TopologyByName(%q) not found", name)
		}
		if topo.N < 4 {
			t.Errorf("%s: %d nodes, want >= 4 so crash campaigns have unprotected targets", name, topo.N)
		}
		deg := make([]int, topo.N+1)
		for _, pair := range topo.Pairs {
			for _, n := range pair {
				if n < 1 || n > topo.N {
					t.Fatalf("%s: link endpoint %d out of range", name, n)
				}
				deg[n]++
			}
		}
		for n := 1; n <= topo.N; n++ {
			if deg[n] < 2 {
				t.Errorf("%s: node %d has degree %d, want >= 2 (single faults must not isolate by design)", name, n, deg[n])
			}
		}
	}
	if _, ok := TopologyByName("nope"); ok {
		t.Fatal("unknown topology resolved")
	}
}

func TestStatsClean(t *testing.T) {
	if (Stats{}).Clean() {
		t.Fatal("zero checks must not report Clean")
	}
	s := Stats{EventsInjected: 12, FaultsActive: 1, InvariantChecks: 40, Campaigns: 1}
	if !s.Clean() {
		t.Fatal("violation-free run must report Clean")
	}
	s.Violations++
	if s.Clean() {
		t.Fatal("run with a violation must not report Clean")
	}
}

func TestExpandIsDeterministicAndBounded(t *testing.T) {
	c := Campaign{
		Topo: "ring8", Seed: 77, Duration: 6 * time.Second,
		Generators: []GeneratorSpec{
			{Kind: KindCutLink, Rate: 1},
			{Kind: KindCrashNode, Rate: 0.5},
			{Kind: KindPartition, Rate: 0.5},
		},
	}
	topo, _ := TopologyByName(c.Topo)
	a, err := Expand(c, topo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(c, topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("expansion produced no events")
	}
	if len(a) != len(b) {
		t.Fatalf("expansion lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("event %d differs across expansions: %v vs %v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("events not time-sorted at %d: %v after %v", i, a[i], a[i-1])
		}
	}
	faults := make(map[Kind]int)
	for _, ev := range a {
		if ev.At < 0 || ev.At > c.Duration {
			t.Errorf("event %v outside the fault window", ev)
		}
		if f, repair := faultOf(ev.Kind); !repair && f.repair != "" {
			faults[ev.Kind]++
		}
		if ev.Kind == KindCrashNode && ev.Arg < protectedNodes {
			t.Errorf("generator crashed protected node index %d", ev.Arg)
		}
	}
	for _, g := range c.Generators {
		if faults[g.Kind] == 0 {
			t.Errorf("generator %s produced no faults", g.Kind)
		}
		if faults[g.Kind] > maxFaultsPerGenerator {
			t.Errorf("generator %s produced %d faults, cap is %d", g.Kind, faults[g.Kind], maxFaultsPerGenerator)
		}
	}

	// The fault table keeps its kinds, their repairs, their target spaces
	// and their order, which `sonet-chaos list` prints.
	want := []Kind{KindCutLink, KindCrashNode, KindLeaveNode, KindPartition,
		KindISPOutage, KindBrownout, KindLatencySpike, KindCorruptView}
	repairs := map[Kind]Kind{
		KindCutLink: KindRestoreLink, KindCrashNode: KindRestartNode, KindLeaveNode: KindRejoinNode,
		KindPartition: KindHeal, KindISPOutage: KindISPRestore, KindBrownout: KindBrownoutEnd,
		KindLatencySpike: KindLatencyNormal,
	}
	spaces := map[Kind]space{
		KindCutLink: linkSpace, KindCrashNode: nodeSpace, KindLeaveNode: nodeSpace,
		KindPartition: maskSpace, KindISPOutage: ispSpace, KindBrownout: ispSpace,
		KindLatencySpike: linkSpace, KindCorruptView: nodeSpace,
	}
	if got := FaultKinds(); !slices.Equal(got, want) {
		t.Fatalf("FaultKinds() = %v, want %v", got, want)
	}
	// Every generator kind, on every builtin topology, expands to a script
	// Validate accepts, in which each fault is followed by its repair.
	for _, name := range TopologyNames() {
		topo, _ := TopologyByName(name)
		for _, k := range want {
			f, repair := faultOf(k)
			if f == nil || repair || f.repair != repairs[k] || f.space != spaces[k] {
				t.Fatalf("%s: table row %+v, want a fault repaired by %q in space %d", k, f, repairs[k], spaces[k])
			}
			if r, isRepair := faultOf(repairs[k]); repairs[k] != "" && (r != f || !isRepair) {
				t.Fatalf("%s: repair kind %s resolves to another row", k, repairs[k])
			}
			c := Campaign{Topo: name, Seed: 5, Duration: 6 * time.Second,
				Generators: []GeneratorSpec{{Kind: k, Rate: 1}}}
			evs, err := Expand(c, topo)
			if err != nil {
				t.Fatalf("%s on %s: %v", k, name, err)
			}
			if len(evs) == 0 {
				t.Errorf("%s on %s expanded to no events", k, name)
			}
			if err := (Campaign{Topo: name, Duration: c.Duration, Script: evs}).Validate(); err != nil {
				t.Errorf("%s on %s: expansion fails validation: %v", k, name, err)
			}
			var open []Event
			for _, ev := range evs {
				if f.space == nodeSpace && ev.Arg < protectedNodes {
					t.Errorf("%s on %s: generator targeted protected node index %d", k, name, ev.Arg)
				}
				switch ev.Kind {
				case k:
					if repairs[k] != "" {
						open = append(open, ev)
					}
				case repairs[k]:
					i := slices.IndexFunc(open, func(o Event) bool { return o.Arg == ev.Arg && o.Mask.Equal(ev.Mask) })
					if i < 0 {
						t.Errorf("%s on %s: %v repairs no earlier fault", k, name, ev)
						continue
					}
					open = slices.Delete(open, i, i+1)
				default:
					t.Errorf("%s on %s: foreign event %v", k, name, ev)
				}
			}
			if len(open) > 0 {
				t.Errorf("%s on %s: faults never repaired: %v", k, name, open)
			}
		}
	}
}

// TestCampaignDeterminism is the replay acceptance gate: two runs of the
// same (scenario, seed) must produce the identical concrete script, the
// identical event trace, and the identical invariant verdicts.
func TestCampaignDeterminism(t *testing.T) {
	c := Campaign{Topo: "diamond4", Seed: 909, Duration: 4 * time.Second,
		Generators: []GeneratorSpec{
			{Kind: KindCutLink, Rate: 0.5},
			{Kind: KindCrashNode, Rate: 0.25},
			{Kind: KindBrownout, Rate: 0.25},
		}}
	r1, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TraceHash != r2.TraceHash {
		t.Fatalf("trace hashes differ: %016x vs %016x", r1.TraceHash, r2.TraceHash)
	}
	if len(r1.Trace) != len(r2.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(r1.Trace), len(r2.Trace))
	}
	if len(r1.Events) != len(r2.Events) {
		t.Fatalf("scripts differ in length: %d vs %d", len(r1.Events), len(r2.Events))
	}
	for i := range r1.Events {
		if !r1.Events[i].Equal(r2.Events[i]) {
			t.Fatalf("event %d differs: %v vs %v", i, r1.Events[i], r2.Events[i])
		}
	}
	if len(r1.Violations) != len(r2.Violations) {
		t.Fatalf("verdicts differ: %v vs %v", r1.Violations, r2.Violations)
	}
}

// TestReplayFromArtifact round-trips a campaign through its on-disk
// replay artifact: the replayed run must reproduce the recorded trace
// hash and verdicts exactly.
func TestReplayFromArtifact(t *testing.T) {
	c := Campaign{Topo: "ring8", Seed: 1234, Duration: 4 * time.Second,
		Generators: []GeneratorSpec{
			{Kind: KindPartition, Rate: 0.3},
			{Kind: KindISPOutage, Rate: 0.3},
		}}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "campaign.json")
	if err := WriteArtifact(path, r); err != nil {
		t.Fatal(err)
	}
	a, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(r.Events) {
		t.Fatalf("artifact recorded %d events, report had %d", len(a.Events), len(r.Events))
	}
	replayed, match, err := Replay(a)
	if err != nil {
		t.Fatal(err)
	}
	if !match {
		t.Fatalf("replay diverged: recorded hash %s, replayed %016x (violations %v vs %v)",
			a.TraceHash, replayed.TraceHash, a.Violations, replayed.Violations)
	}
}

// TestChaosSmoke runs the pinned-seed campaign suite: every generator
// kind, every topology, zero violations tolerated. This is the CI gate
// behind `make chaos-smoke`.
func TestChaosSmoke(t *testing.T) {
	coverage := make(map[Kind]bool)
	for _, c := range SmokeCampaigns() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			r, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range r.Violations {
				t.Errorf("violation at %v: %s: %s", v.At, v.Invariant, v.Detail)
			}
			if !r.Stats.Clean() {
				t.Errorf("stats not clean: %+v", r.Stats)
			}
			if r.Stats.FaultsActive != 0 {
				t.Errorf("campaign ended with %d faults still active", r.Stats.FaultsActive)
			}
			if r.Stats.EventsInjected == 0 {
				t.Error("campaign injected no events")
			}
			for _, ev := range r.Events {
				coverage[ev.Kind] = true
			}
		})
	}
	for _, k := range []Kind{KindCutLink, KindPartition, KindCrashNode, KindISPOutage, KindBrownout, KindLatencySpike} {
		if !coverage[k] {
			t.Errorf("smoke suite never exercised %s", k)
		}
	}
}

// TestSmokeTraceHashesPinned is the behaviour witness: the twelve smoke
// campaigns must reproduce these trace hashes bit for bit (identical at
// GOMAXPROCS=1 and default). A refactor that claims "same behaviour" moves
// none of them; a deliberate protocol change updates the table in the same
// commit and says why.
func TestSmokeTraceHashesPinned(t *testing.T) {
	golden := map[string]uint64{
		"flap-diamond":          0x5d6071e4697d3fae,
		"partition-ring":        0xbc827824f5a7f7cb,
		"crash-grid":            0xb4ffacf42a17e104,
		"ispout-diamond":        0x5e5040a7b551e63f,
		"brownout-ring":         0x62d9d9d3e71a6bbe,
		"spike-grid":            0xfb3fc7243a225caf,
		"flap-crash-ring":       0x8b15e2ba8bd23a0e,
		"partition-ispout-grid": 0xd3b846b30d93889c,
		"everything-diamond":    0xd1e0c1f695253fe6,
		"scripted-mixed":        0x470175a9c6a81483,
		"churn-ring":            0x7ba472ee92b29388,
		"churn-corrupt-grid":    0x73bd08ea6e156666,
	}
	campaigns := SmokeCampaigns()
	if len(campaigns) != len(golden) {
		t.Fatalf("smoke suite has %d campaigns, golden table %d", len(campaigns), len(golden))
	}
	for _, c := range campaigns {
		want, ok := golden[c.Name]
		if !ok {
			t.Errorf("%s: no pinned hash", c.Name)
			continue
		}
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if r.TraceHash != want {
			t.Errorf("%s: trace hash %016x, pinned %016x", c.Name, r.TraceHash, want)
		}
	}
}

// TestRestoreAllRepairsEveryFault leaves one fault of every repairable
// kind outstanding when the fault window closes — and one link cut twice,
// so a target holds depth 2 — and checks the end-of-window pass repairs
// them all: the world converges with no violation, no fault stays active,
// and the repair order is pinned by the trace hash. Traffic endpoints
// (indices 0–2) are neither crashed nor departed.
func TestRestoreAllRepairsEveryFault(t *testing.T) {
	c := Campaign{Topo: "churn8", Seed: 31, Duration: 4 * time.Second,
		Script: []Event{
			{At: 300 * time.Millisecond, Kind: KindCutLink, Arg: 4},
			{At: 600 * time.Millisecond, Kind: KindLatencySpike, Arg: 0, Val: 30},
			{At: 900 * time.Millisecond, Kind: KindCutLink, Arg: 4},
			{At: 1200 * time.Millisecond, Kind: KindBrownout, Arg: 1, Val: 100},
			{At: 1500 * time.Millisecond, Kind: KindCrashNode, Arg: 5},
			{At: 1800 * time.Millisecond, Kind: KindLeaveNode, Arg: 6},
			{At: 2100 * time.Millisecond, Kind: KindPartition, Mask: MaskBits(0b1000_1000)},
			{At: 2400 * time.Millisecond, Kind: KindISPOutage, Arg: 0},
		}}
	r, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Violations {
		t.Errorf("violation at %v: %s: %s", v.At, v.Invariant, v.Detail)
	}
	if r.Stats.FaultsActive != 0 {
		t.Errorf("campaign ended with %d faults still active", r.Stats.FaultsActive)
	}
	const want = 0x7753f60e4be13b41
	if r.TraceHash != want {
		t.Errorf("trace hash %016x, pinned %016x", r.TraceHash, uint64(want))
	}
}

// TestMinimizeShrinksFailingCampaign crashes the stream destination by
// explicit script — a real, detectable violation (its client state dies
// with it) — pads the script with benign flaps, and checks the minimizer
// shrinks to a failing prefix that keeps the crash and sheds the noise.
func TestMinimizeShrinksFailingCampaign(t *testing.T) {
	c := Campaign{Topo: "diamond4", Seed: 5, Duration: 5 * time.Second,
		Script: []Event{
			{At: 1 * time.Second, Kind: KindCrashNode, Arg: streamDstIndex},
			{At: 1800 * time.Millisecond, Kind: KindRestartNode, Arg: streamDstIndex},
			{At: 2500 * time.Millisecond, Kind: KindCutLink, Arg: 1},
			{At: 2900 * time.Millisecond, Kind: KindRestoreLink, Arg: 1},
			{At: 3300 * time.Millisecond, Kind: KindCutLink, Arg: 2},
			{At: 3700 * time.Millisecond, Kind: KindRestoreLink, Arg: 2},
		}}
	full, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Failed() {
		t.Fatal("crashing the stream destination should violate an end-to-end invariant")
	}
	minimal, report, err := Minimize(c)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Failed() {
		t.Fatal("minimized campaign does not fail")
	}
	if len(minimal.Script) == 0 || len(minimal.Script) >= len(c.Script) {
		t.Fatalf("minimizer kept %d of %d events", len(minimal.Script), len(c.Script))
	}
	last := minimal.Script[len(minimal.Script)-1]
	if last.Kind != KindCrashNode {
		t.Fatalf("minimal failing prefix ends with %v, want the destination crash", last)
	}
	if _, _, err := Minimize(Campaign{Topo: "diamond4", Seed: 6, Duration: 2 * time.Second}); err == nil {
		t.Fatal("minimizing a passing campaign should error")
	}
}

// TestChaosSoak is the long-haul variant: many random campaigns across
// topologies and generator mixes. Gated behind CHAOS_SOAK=1 (see `make
// chaos-soak`).
func TestChaosSoak(t *testing.T) {
	if os.Getenv("CHAOS_SOAK") == "" {
		t.Skip("set CHAOS_SOAK=1 to run the soak suite")
	}
	topos := TopologyNames()
	kinds := []Kind{KindCutLink, KindPartition, KindCrashNode, KindISPOutage, KindBrownout, KindLatencySpike}
	for seed := uint64(1); seed <= 30; seed++ {
		c := Campaign{
			Topo:     topos[int(seed)%len(topos)],
			Seed:     seed * 7919,
			Duration: 8 * time.Second,
			Generators: []GeneratorSpec{
				{Kind: kinds[int(seed)%len(kinds)], Rate: 0.5},
				{Kind: kinds[int(seed+1)%len(kinds)], Rate: 0.3},
				{Kind: kinds[int(seed+3)%len(kinds)], Rate: 0.2},
			},
		}
		r, err := Run(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range r.Violations {
			t.Errorf("seed %d (%s): violation at %v: %s: %s", seed, c.Topo, v.At, v.Invariant, v.Detail)
		}
	}
}
