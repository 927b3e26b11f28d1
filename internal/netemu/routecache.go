package netemu

import "time"

// The underlay's per-packet routing cost is the dominant simulation cost:
// every EXP-* scenario funnels through Network.Send, and each packet needs
// the provider's converged shortest path. Topology changes are rare (fiber
// cuts, convergence events, site failures) while packets are constant, so
// routes are memoized per provider and invalidated lazily by a topology
// epoch: every mutation of a provider's converged view bumps its epoch,
// and a cached route is trusted only while its recorded epoch matches.
// Rapid flap sequences therefore stay correct without eager cache walks —
// a stale entry is simply recomputed on its next use.

// routeEntry is one memoized converged route.
type routeEntry struct {
	// epoch is the provider topology epoch the route was computed under.
	epoch uint64
	// ok records whether a route existed (negative results are cached too).
	ok bool
	// latency is the nominal (jitter-free) latency along path.
	latency time.Duration
	// path is the fiber sequence from src to dst; its backing array is
	// reused across recomputations.
	path []FiberID
}

// routeCache memoizes converged routes for every provider and owns the
// dense scratch state of the slice-indexed SPF.
type routeCache struct {
	// byProvider holds each ISPID's cached routes: a row per source site,
	// allocated on its first lookup, indexed by destination site. Lookups
	// on the Send fast path allocate nothing.
	byProvider [][][]*routeEntry

	// SPF scratch, sized to the site count and reused across runs: the
	// emulator is single-threaded (see Network), so one set suffices.
	dist      []time.Duration
	visited   []bool
	prevFiber []FiberID

	stats RouteCacheStats
}

// RouteCacheStats counts underlay route-cache activity on the per-packet
// Send path. Like Stats it is written and read on the scheduler goroutine.
type RouteCacheStats struct {
	// Hits counts Send route lookups served by a cached route whose epoch
	// matched the provider's current topology epoch.
	Hits uint64
	// Misses counts lookups that ran the SPF — first packets of a flow and
	// lookups after an invalidation.
	Misses uint64
	// Invalidations counts provider topology-epoch bumps (fiber added,
	// convergence event applied, site liveness change). One bump lazily
	// invalidates every cached route of that provider.
	Invalidations uint64
}

// HitRatio returns Hits / (Hits + Misses), or 0 before the first lookup.
func (s RouteCacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// addProvider appends an empty cache for a newly registered ISP.
func (c *routeCache) addProvider() { c.byProvider = append(c.byProvider, nil) }

// slot returns the cache cell for (src, dst) under provider, growing the
// provider's rows to cover the sites [0, sites).
func (c *routeCache) slot(provider ISPID, src, dst SiteID, sites int) **routeEntry {
	rows := c.byProvider[provider]
	if int(src) >= len(rows) {
		rows = append(rows, make([][]*routeEntry, sites-len(rows))...)
		c.byProvider[provider] = rows
	}
	if int(dst) >= len(rows[src]) {
		rows[src] = append(rows[src], make([]*routeEntry, sites-len(rows[src]))...)
	}
	return &rows[src][dst]
}

// grow ensures the SPF scratch covers sites [0, n).
func (c *routeCache) grow(n int) {
	if n <= len(c.dist) {
		return
	}
	c.dist = make([]time.Duration, n)
	c.visited = make([]bool, n)
	c.prevFiber = make([]FiberID, n)
}

// bumpEpoch invalidates every cached route of one provider by advancing
// its topology epoch. Entries are reconciled lazily on their next lookup.
func (n *Network) bumpEpoch(provider ISPID) {
	n.isps[provider].epoch++
	n.routes.stats.Invalidations++
}

// bumpAllEpochs invalidates every provider's cached routes (site liveness
// changes are not provider-scoped).
func (n *Network) bumpAllEpochs() {
	for i := range n.isps {
		n.bumpEpoch(ISPID(i))
	}
}

// convergedPath returns the shortest (by nominal latency) fiber path
// between two sites in the provider's converged view of its topology,
// memoized under the provider's topology epoch. The returned slice is
// owned by the cache: callers must not retain or modify it across calls.
func (n *Network) convergedPath(provider ISPID, src, dst SiteID) ([]FiberID, time.Duration, bool) {
	prov := &n.isps[provider]
	slot := n.routes.slot(provider, src, dst, len(n.sites))
	if e := *slot; e != nil {
		if e.epoch == prov.epoch {
			n.routes.stats.Hits++
			return e.path, e.latency, e.ok
		}
		n.routes.stats.Misses++
		e.path, e.latency, e.ok = n.spf(prov, src, dst, e.path[:0])
		e.epoch = prov.epoch
		return e.path, e.latency, e.ok
	}
	n.routes.stats.Misses++
	e := &routeEntry{epoch: prov.epoch}
	e.path, e.latency, e.ok = n.spf(prov, src, dst, nil)
	*slot = e
	return e.path, e.latency, e.ok
}

// spf runs Dijkstra over the provider's converged adjacency using dense
// slice-indexed state (no per-run allocation once scratch is grown). Site
// counts are small, so linear minimum extraction beats a priority queue.
// Ties break toward the lowest site ID and the earliest-laid fiber, which
// keeps route choice deterministic and independent of cache state.
func (n *Network) spf(prov *isp, src, dst SiteID, path []FiberID) ([]FiberID, time.Duration, bool) {
	path = path[:0]
	if src == dst {
		return path, 0, true
	}
	const inf = time.Duration(1<<63 - 1)
	ns := len(n.sites)
	n.routes.grow(ns)
	dist := n.routes.dist[:ns]
	visited := n.routes.visited[:ns]
	prev := n.routes.prevFiber[:ns]
	for i := range dist {
		dist[i] = inf
		visited[i] = false
	}
	dist[src] = 0
	for {
		best, bestDist := -1, inf
		for i, d := range dist {
			if !visited[i] && d < bestDist {
				best, bestDist = i, d
			}
		}
		if best < 0 || SiteID(best) == dst {
			break
		}
		visited[best] = true
		if best >= len(prov.adj) {
			// Site added after this provider's last fiber: no adjacency.
			continue
		}
		for _, hf := range prov.adj[best] {
			if !n.fibers[hf.fiber].convergedUp {
				continue
			}
			if nd := bestDist + n.fibers[hf.fiber].latency; nd < dist[hf.to] {
				dist[hf.to] = nd
				prev[hf.to] = hf.fiber
			}
		}
	}
	if dist[dst] == inf {
		return path, 0, false
	}
	for s := dst; s != src; {
		fid := prev[s]
		path = append(path, fid)
		f := &n.fibers[fid]
		if s == f.a {
			s = f.b
		} else {
			s = f.a
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[dst], true
}
