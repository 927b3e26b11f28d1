package netemu

import (
	"fmt"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// SiteID identifies a data center hosting overlay nodes.
type SiteID uint16

// ISPID identifies an Internet service provider backbone.
type ISPID uint8

// FiberID identifies one fiber span (a direct site-to-site physical path
// within one ISP's backbone).
type FiberID int

// Handler receives packets delivered to an overlay node's address.
type Handler func(from wire.NodeID, data []byte)

// Config parameterizes the emulated underlay.
type Config struct {
	// ConvergenceDelay is how long native IP routing takes to route
	// around a failure — the BGP convergence the paper contrasts against
	// ("the 40 seconds to minutes that BGP may take to converge during
	// some network faults", §II-A).
	ConvergenceDelay time.Duration
	// RestoreDelay is how long routing takes to reuse a repaired fiber;
	// route re-announcement is much faster than withdrawal convergence.
	RestoreDelay time.Duration
}

// DefaultConfig matches the paper's stated BGP behaviour.
func DefaultConfig() Config {
	return Config{ConvergenceDelay: 40 * time.Second, RestoreDelay: 5 * time.Second}
}

// Stats counts packet fates across the underlay. Every sent packet ends in
// exactly one of the other counters:
// Sent == Delivered + DroppedLoss + DroppedDown + DroppedNoRoute.
type Stats struct {
	// Sent counts Send calls.
	Sent uint64
	// Delivered counts packets handed to destination handlers.
	Delivered uint64
	// DroppedLoss counts packets lost to the stochastic loss models.
	DroppedLoss uint64
	// DroppedDown counts packets that hit a cut fiber or dead site before
	// routing converged around it.
	DroppedDown uint64
	// DroppedNoRoute counts packets with no usable converged route or no
	// registered destination.
	DroppedNoRoute uint64
}

type site struct {
	name string
	up   bool
}

type fiber struct {
	id      FiberID
	isp     ISPID
	a, b    SiteID
	latency time.Duration
	jitter  time.Duration
	loss    LossModel
	cut     bool
	// convergedUp is the up/down state routing currently believes for this
	// fiber; it lags reality (cut) by the provider's convergence delay.
	convergedUp bool
}

// halfFiber is one directed half of a fiber in a provider's adjacency
// list: the far endpoint and the fiber that reaches it.
type halfFiber struct {
	to    SiteID
	fiber FiberID
}

// isp holds one provider's backbone graph and its converged routing state.
type isp struct {
	name string
	// extraLoss models provider-wide degradation (brown-out) as an added
	// independent drop probability on every fiber of this ISP.
	extraLoss float64
	// fibers of this provider.
	fibers []FiberID
	// adj is the provider's adjacency list indexed by SiteID, maintained
	// incrementally by AddFiber so the SPF never scans unrelated fibers.
	adj [][]halfFiber
	// epoch is the provider's topology epoch: bumped whenever the
	// converged view changes (fiber laid, convergence event applied, site
	// liveness change). Cached routes record the epoch they were computed
	// under and are recomputed lazily on mismatch.
	epoch uint64
}

// Network is the emulated underlay. All methods must be called from the
// simulation goroutine (the scheduler's event context); the emulator is
// intentionally single-threaded for determinism.
type Network struct {
	sched *sim.Scheduler
	cfg   Config

	sites  []site
	isps   []isp
	fibers []fiber

	// nodes holds each attached node's site and handler by its ID, so the
	// per-packet path does no map lookups.
	nodes wire.NodeTable[attachment]

	routes routeCache

	// freeDeliveries pools in-flight delivery records so a steady packet
	// stream schedules deliveries without allocating.
	freeDeliveries []*delivery

	stats Stats
}

// New returns an empty underlay driven by sched.
func New(sched *sim.Scheduler, cfg Config) *Network {
	if cfg.ConvergenceDelay <= 0 {
		cfg.ConvergenceDelay = DefaultConfig().ConvergenceDelay
	}
	if cfg.RestoreDelay <= 0 {
		cfg.RestoreDelay = DefaultConfig().RestoreDelay
	}
	return &Network{sched: sched, cfg: cfg}
}

// AddSite registers a data center and returns its ID.
func (n *Network) AddSite(name string) SiteID {
	n.sites = append(n.sites, site{name: name, up: true})
	return SiteID(len(n.sites) - 1)
}

// AddISP registers a provider backbone and returns its ID.
func (n *Network) AddISP(name string) ISPID {
	n.isps = append(n.isps, isp{name: name})
	n.routes.addProvider()
	return ISPID(len(n.isps) - 1)
}

// AddFiber lays a fiber span between two sites within one ISP's backbone.
// Jitter adds a uniform [0, jitter) delay per packet.
func (n *Network) AddFiber(provider ISPID, a, b SiteID, latency, jitter time.Duration, loss LossModel) (FiberID, error) {
	if int(provider) >= len(n.isps) {
		return 0, fmt.Errorf("netemu: unknown ISP %d", provider)
	}
	if int(a) >= len(n.sites) || int(b) >= len(n.sites) || a == b {
		return 0, fmt.Errorf("netemu: bad fiber endpoints %d-%d", a, b)
	}
	if loss == nil {
		loss = NoLoss{}
	}
	id := FiberID(len(n.fibers))
	n.fibers = append(n.fibers, fiber{
		id: id, isp: provider, a: a, b: b,
		latency: latency, jitter: jitter, loss: loss,
		convergedUp: true,
	})
	prov := &n.isps[provider]
	prov.fibers = append(prov.fibers, id)
	if need := int(max(a, b)) + 1; need > len(prov.adj) {
		adj := make([][]halfFiber, need)
		copy(adj, prov.adj)
		prov.adj = adj
	}
	prov.adj[a] = append(prov.adj[a], halfFiber{to: b, fiber: id})
	prov.adj[b] = append(prov.adj[b], halfFiber{to: a, fiber: id})
	n.bumpEpoch(provider)
	return id, nil
}

// AttachNode places an overlay node in a site and registers its packet
// handler.
func (n *Network) AttachNode(node wire.NodeID, at SiteID, h Handler) error {
	if int(at) >= len(n.sites) {
		return fmt.Errorf("netemu: unknown site %d", at)
	}
	n.nodes.Put(node, attachment{site: at, ok: true, handler: h})
	return nil
}

// attachment is where a node is attached: ok distinguishes "never
// attached" from the zero SiteID.
type attachment struct {
	site    SiteID
	ok      bool
	handler Handler
}

// NodeSite returns the site a node is attached to.
func (n *Network) NodeSite(node wire.NodeID) (SiteID, bool) {
	a := n.nodes.At(node)
	return a.site, a.ok
}

// Stats returns a snapshot of underlay counters.
func (n *Network) Stats() Stats { return n.stats }

// RouteCacheStats returns the underlay route-cache counters.
func (n *Network) RouteCacheStats() RouteCacheStats { return n.routes.stats }

// delivery is one in-flight packet: a pooled sim.Runner that performs the
// destination-side checks and hands the payload to the handler.
type delivery struct {
	net      *Network
	from, to wire.NodeID
	buf      *wire.Buf
}

// Run implements sim.Runner at the packet's arrival instant.
func (d *delivery) Run() {
	n, from, to, buf := d.net, d.from, d.to, d.buf
	d.buf = nil
	n.freeDeliveries = append(n.freeDeliveries, d)
	defer buf.Release()
	st, ok := n.NodeSite(to)
	if !ok || !n.sites[st].up {
		n.stats.DroppedDown++
		return
	}
	h := n.nodes[to].handler
	if h == nil {
		// The destination detached (or attached with no handler) while the
		// packet was in flight: the address no longer routes anywhere.
		n.stats.DroppedNoRoute++
		return
	}
	n.stats.Delivered++
	h(from, buf.B)
}

// Send transmits data from one overlay node to another over the given
// provider's backbone. Like IP, it never reports delivery failure to the
// sender: packets are silently dropped on loss, on fibers that are cut but
// not yet routed around, or when no route exists.
//
// On a stable topology the path is amortized allocation-free: the route
// comes from the epoch-checked cache, the payload copy from the shared
// buffer pool, and the delivery event from pooled scheduler state.
func (n *Network) Send(from, to wire.NodeID, provider ISPID, data []byte) {
	n.stats.Sent++
	srcSite, ok := n.NodeSite(from)
	if !ok {
		n.stats.DroppedNoRoute++
		return
	}
	dstSite, ok := n.NodeSite(to)
	if !ok {
		n.stats.DroppedNoRoute++
		return
	}
	if !n.sites[srcSite].up || !n.sites[dstSite].up {
		n.stats.DroppedDown++
		return
	}
	if int(provider) >= len(n.isps) {
		n.stats.DroppedNoRoute++
		return
	}

	path, _, ok := n.convergedPath(provider, srcSite, dstSite)
	if !ok {
		n.stats.DroppedNoRoute++
		return
	}

	var latency time.Duration
	prov := &n.isps[provider]
	for _, fid := range path {
		f := &n.fibers[fid]
		// Reality check: routing may still believe in a fiber that has
		// just been cut, or traverse a site that has just died.
		if f.cut || !n.sites[f.a].up || !n.sites[f.b].up {
			n.stats.DroppedDown++
			return
		}
		if f.loss.Drop(n.sched.Now(), n.sched.Rand()) {
			n.stats.DroppedLoss++
			return
		}
		if prov.extraLoss > 0 && n.sched.Rand().Float64() < prov.extraLoss {
			n.stats.DroppedLoss++
			return
		}
		latency += f.latency
		if f.jitter > 0 {
			latency += time.Duration(n.sched.Rand().Int64N(int64(f.jitter)))
		}
	}

	// The sender borrows data, so the in-flight copy lives in a pooled
	// buffer released once the destination handler returns (handlers borrow
	// the bytes too).
	buf := wire.DefaultBufPool.Get(len(data))
	buf.B = append(buf.B, data...)
	var d *delivery
	if l := len(n.freeDeliveries); l > 0 {
		d = n.freeDeliveries[l-1]
		n.freeDeliveries[l-1] = nil
		n.freeDeliveries = n.freeDeliveries[:l-1]
	} else {
		d = &delivery{net: n}
	}
	d.from, d.to, d.buf = from, to, buf
	n.sched.AfterRunner(latency, d)
}

// PathLatency returns the current converged route's nominal latency
// between two nodes on one provider, for planning and tests.
func (n *Network) PathLatency(from, to wire.NodeID, provider ISPID) (time.Duration, bool) {
	srcSite, ok := n.NodeSite(from)
	if !ok {
		return 0, false
	}
	dstSite, ok := n.NodeSite(to)
	if !ok {
		return 0, false
	}
	if int(provider) >= len(n.isps) {
		return 0, false
	}
	_, latency, ok := n.convergedPath(provider, srcSite, dstSite)
	return latency, ok
}

// CutFiber severs a fiber immediately; native routing notices after the
// convergence delay.
func (n *Network) CutFiber(id FiberID) {
	if int(id) >= len(n.fibers) || n.fibers[id].cut {
		return
	}
	n.fibers[id].cut = true
	n.scheduleConvergence(n.fibers[id].isp, id)
}

// RestoreFiber repairs a fiber; routing reuses it after the convergence
// delay.
func (n *Network) RestoreFiber(id FiberID) {
	if int(id) >= len(n.fibers) || !n.fibers[id].cut {
		return
	}
	n.fibers[id].cut = false
	n.scheduleConvergence(n.fibers[id].isp, id)
}

// FiberCut reports whether a fiber is currently severed.
func (n *Network) FiberCut(id FiberID) bool {
	return int(id) < len(n.fibers) && n.fibers[id].cut
}

// SetFiberLatency overrides a fiber's propagation latency and jitter — the
// per-fiber fault hook behind latency/jitter spike injection. Latency
// participates in converged route choice, so the provider's cached routes
// are invalidated when the value actually changes. It reports whether the
// fiber exists and the latency is valid.
func (n *Network) SetFiberLatency(id FiberID, latency, jitter time.Duration) bool {
	if int(id) >= len(n.fibers) || id < 0 || latency < 0 || jitter < 0 {
		return false
	}
	f := &n.fibers[id]
	if f.latency == latency && f.jitter == jitter {
		return true
	}
	f.latency, f.jitter = latency, jitter
	n.bumpEpoch(f.isp)
	return true
}

// FiberLatency returns a fiber's current nominal latency and jitter, so
// fault injectors can save values before spiking and restore them after.
func (n *Network) FiberLatency(id FiberID) (latency, jitter time.Duration, ok bool) {
	if int(id) >= len(n.fibers) || id < 0 {
		return 0, 0, false
	}
	f := &n.fibers[id]
	return f.latency, f.jitter, true
}

// Partition cuts every currently intact fiber crossing the bipartition
// (sites in groupA versus all other sites) across all providers, and
// returns the fibers it cut so Heal can undo exactly this partition.
// Fibers that were already cut are left alone and not returned: healing a
// partition must not resurrect independently injected faults.
func (n *Network) Partition(groupA []SiteID) []FiberID {
	inA := make([]bool, len(n.sites))
	for _, s := range groupA {
		if int(s) < len(inA) {
			inA[s] = true
		}
	}
	var cut []FiberID
	for i := range n.fibers {
		f := &n.fibers[i]
		if f.cut || inA[f.a] == inA[f.b] {
			continue
		}
		cut = append(cut, f.id)
		n.CutFiber(f.id)
	}
	return cut
}

// Heal restores a set of fibers (typically the return value of Partition).
// Fibers already restored by other means are left alone.
func (n *Network) Heal(ids []FiberID) {
	for _, id := range ids {
		n.RestoreFiber(id)
	}
}

// SetSiteUp marks a whole data center up or down. Traffic to, from, or
// through a dead site is dropped.
func (n *Network) SetSiteUp(id SiteID, up bool) {
	if int(id) >= len(n.sites) || n.sites[id].up == up {
		return
	}
	n.sites[id].up = up
	// Converged routes ignore site liveness (Send's reality check drops at
	// dead sites, matching IP's lack of host-level routing), so cached
	// routes would stay correct — but invalidating keeps the rule simple:
	// every topology-affecting mutation bumps epochs.
	n.bumpAllEpochs()
}

// SetISPExtraLoss models a provider-wide degradation: an added independent
// drop probability applied on every fiber of the provider. Loss does not
// affect route choice, so cached routes stay valid.
func (n *Network) SetISPExtraLoss(provider ISPID, p float64) {
	if int(provider) < len(n.isps) {
		n.isps[provider].extraLoss = p
	}
}

func (n *Network) scheduleConvergence(provider ISPID, id FiberID) {
	delay := n.cfg.ConvergenceDelay
	if !n.fibers[id].cut {
		delay = n.cfg.RestoreDelay
	}
	n.sched.After(delay, func() {
		// Converge to the fiber's state *now*, not the state at scheduling
		// time, so rapid flap sequences settle on reality. The epoch moves
		// only when the converged view actually changes; a flap that
		// settles back before its convergence event fires keeps every
		// cached route valid.
		if up := !n.fibers[id].cut; n.fibers[id].convergedUp != up {
			n.fibers[id].convergedUp = up
			n.bumpEpoch(provider)
		}
	})
}
