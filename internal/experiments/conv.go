package experiments

import (
	"fmt"
	"runtime"
	"time"

	"sonet/internal/metrics"
	"sonet/internal/routing"
	"sonet/internal/topology"
	"sonet/internal/wire"
)

// convViews adapts one shared View to routing.ViewSource: the EXP-CONV
// world models the paper's shared global state by handing every node's
// engine the same view, exactly like the fully-converged steady state
// after an LSA flood.
type convViews struct{ view *topology.View }

func (c *convViews) View() *topology.View { return c.view }

// convGroups is a fixed membership map for the multicast churn phase.
type convGroups struct {
	members map[wire.GroupID][]wire.NodeID
	version uint64
}

func (c *convGroups) Members(g wire.GroupID) []wire.NodeID { return c.members[g] }
func (c *convGroups) LocalMember(g wire.GroupID) bool      { return false }
func (c *convGroups) Version() uint64                      { return c.version }

// convWorld is one N-node convergence arena: a shared view plus a routing
// engine per measured node. Up to convEngineCap nodes every node carries an
// engine; past that the engines sample sources spread evenly around the
// ring — the per-node cost is what EXP-CONV measures, and at 10k nodes
// instantiating 10k engines would measure the harness, not the recompute.
type convWorld struct {
	views   *convViews
	groups  *convGroups
	engines []*routing.Engine
	nodes   []wire.NodeID
	probes  []wire.NodeID
}

// convEngineCap bounds how many per-node engines a convergence world
// instantiates at large N.
const convEngineCap = 64

// buildConvWorld puts the engines on topology.RingWithChords(n).
func buildConvWorld(n int) (*convWorld, error) {
	g, err := topology.RingWithChords(n)
	if err != nil {
		return nil, err
	}
	id := func(i int) wire.NodeID { return wire.NodeID(1 + i%n) }
	w := &convWorld{
		views:  &convViews{view: topology.NewView(g)},
		groups: &convGroups{members: map[wire.GroupID][]wire.NodeID{}},
		nodes:  g.Nodes(),
	}
	eng := n
	if eng > convEngineCap {
		eng = convEngineCap
	}
	w.engines = make([]*routing.Engine, eng)
	w.probes = make([]wire.NodeID, eng)
	for i := 0; i < eng; i++ {
		src := i * n / eng
		w.engines[i] = routing.NewEngine(id(src), w.views, w.groups, topology.LatencyMetric)
		w.probes[i] = id(src + n/2) // antipodal probe: the longest recompute-dependent query
	}
	return w, nil
}

// churn simulates one LSA flood reaching every node: even rounds take a
// link down, odd rounds restore it, round-robin in link ID order (ring
// first), so at most one link is ever down and the view stays connected.
func (w *convWorld) churn(round int) {
	nl := w.views.view.G.NumLinks()
	w.views.view.SetUp(wire.LinkID((round/2)%nl), round%2 == 1)
}

// reconvergeAll forces every engine to reconverge its SPT and answer one
// routing query, returning the summed wall-clock compute time. The view
// version moved, so each engine runs one full SPF from the view.
func (w *convWorld) reconvergeAll() time.Duration {
	start := time.Now()
	for i, e := range w.engines {
		e.Reachable(w.probes[i]) // reconverges the SPT: the view version moved
	}
	return time.Since(start)
}

// convOutcome is the measured reconvergence behaviour at one graph size.
type convOutcome struct {
	nodes, links    int
	perNode         time.Duration
	allocsPerReconv float64
	runsPerReconv   float64
	reuseRatio      float64
}

// measureConvergence drives LSA churn through an N-node world: per round,
// one link flips and every measured node reconverges. It reports per-node
// reconvergence latency, allocations per reconvergence (warmed), SPF runs
// per reconvergence, and the share of runs that reused their scratch.
func measureConvergence(n, rounds int) (convOutcome, error) {
	w, err := buildConvWorld(n)
	if err != nil {
		return convOutcome{}, err
	}
	out := convOutcome{nodes: n, links: w.views.view.G.NumLinks()}

	// Warm every engine's scratch (first compute sizes the arenas).
	w.reconvergeAll()

	spf0 := topology.SPFStatsSnapshot()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var busy time.Duration
	for r := 0; r < rounds; r++ {
		w.churn(r)
		busy += w.reconvergeAll()
	}
	runtime.ReadMemStats(&ms1)
	spf1 := topology.SPFStatsSnapshot()

	reconvs := rounds * len(w.engines)
	out.perNode = busy / time.Duration(reconvs)
	out.allocsPerReconv = float64(ms1.Mallocs-ms0.Mallocs) / float64(reconvs)
	runs := metrics.SPFSnapshot{
		Runs:          spf1.Runs - spf0.Runs,
		ScratchReuses: spf1.ScratchReuses - spf0.ScratchReuses,
	}
	out.runsPerReconv = float64(runs.Runs) / float64(reconvs)
	out.reuseRatio = runs.ReuseRatio()
	return out, nil
}

// multicastChurn exercises the bounded (src,group) tree cache on the
// 64-node world: members spread around the ring, repeated tree lookups
// between churn events, then a burst of distinct groups to overflow the
// cache cap.
func multicastChurn(rounds int) (routing.TreeCacheStats, error) {
	w, err := buildConvWorld(64)
	if err != nil {
		return routing.TreeCacheStats{}, err
	}
	w.groups.members[1] = []wire.NodeID{5, 21, 37, 53}
	e := w.engines[0]
	p := &wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: w.nodes[0], Group: 1}
	for r := 0; r < rounds; r++ {
		w.churn(r)
		for i := 0; i < 16; i++ { // steady multicast traffic between floods
			e.Decide(p, routing.NoLink, true)
		}
	}
	// Group burst past the cache cap: distinct (src,group) keys force FIFO
	// capacity evictions even with no further churn.
	for gid := wire.GroupID(2); gid < 130; gid++ {
		w.groups.members[gid] = []wire.NodeID{wire.NodeID(1 + gid%64)}
		bp := &wire.Packet{Type: wire.PTData, Route: wire.RouteMulticast, Src: w.nodes[0], Group: gid}
		e.Decide(bp, routing.NoLink, true)
	}
	return e.TreeCacheStats(), nil
}

// ConvergenceScale reproduces the scaling premise behind §II-A's global
// overlay: after every LSA flood each node reconverges identical routes
// from shared state, so the per-node reconvergence must stay far below the
// paper's millisecond-scale rerouting budget even at thousands of nodes.
// EXP-CONV floods link churn through 16–10240-node graphs and measures the
// per-node reconvergence, one full dense SPF from the view.
func ConvergenceScale(seed uint64) *Result {
	r := &Result{
		ID:    "EXP-CONV",
		Title: "Reconvergence latency and allocations at scale",
		PaperClaim: "every node reconverges identical routes from shared state within " +
			"milliseconds of an LSA flood, keeping sub-second rerouting viable as the " +
			"overlay grows from its 256-link source-routing ceiling to 10k nodes",
		Table: metrics.NewTable("nodes", "links", "reconv/node", "allocs/reconv"),
	}
	_ = seed // wall-clock measurement; churn sequence is deterministic
	sizes := []int{16, 64, 256, 1024}
	if !wire.RaceEnabled {
		// Race instrumentation makes the 4k/10k dense sweeps minutes-long;
		// the 1k point already exercises the sampled-engine large regime.
		sizes = append(sizes, 4096, 10240)
	}
	worstPerNode := time.Duration(0)
	worstAllocs := 0.0
	minReuse := 1.0
	oneRunEach := true
	for _, n := range sizes {
		rounds := 30
		if n >= 1024 {
			rounds = 10
		}
		out, err := measureConvergence(n, rounds)
		if err != nil {
			r.addFinding("ERROR n=%d: %v", n, err)
			return r
		}
		r.Table.AddRow(out.nodes, out.links,
			fmt.Sprintf("%.1fµs", us(out.perNode)),
			fmt.Sprintf("%.2f", out.allocsPerReconv))
		worstPerNode = max(worstPerNode, out.perNode)
		worstAllocs = max(worstAllocs, out.allocsPerReconv)
		minReuse = min(minReuse, out.reuseRatio)
		oneRunEach = oneRunEach && out.runsPerReconv == 1
	}
	trees, err := multicastChurn(30)
	if err != nil {
		r.addFinding("ERROR multicast churn: %v", err)
		return r
	}
	r.addFinding("worst per-node reconvergence %.1fµs (budget: 1ms), one full SPF per reconvergence: %v",
		us(worstPerNode), oneRunEach)
	r.addFinding("allocations per warmed reconvergence ≤%.2f; SPF scratch reuse ≥%.0f%%",
		worstAllocs, 100*minReuse)
	r.addFinding("tree cache under churn+burst: %.1f%% hit ratio, %d evictions (prune+cap) across %d lookups",
		100*trees.HitRatio(), trees.Evictions, trees.Hits+trees.Misses)
	r.CountsHold = oneRunEach &&
		worstAllocs < 2 &&
		minReuse >= 0.9 &&
		trees.Evictions > 0 && trees.Hits > 0
	timingHolds := worstPerNode < time.Millisecond
	if !timingHolds {
		r.addFinding("WARNING: timing: the 1ms per-node budget was missed on this run")
	}
	r.ShapeHolds = r.CountsHold && timingHolds
	return r
}

// us renders a duration in fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
