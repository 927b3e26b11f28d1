package core

import (
	"fmt"
	"time"

	"sonet/internal/netemu"
	"sonet/internal/node"
	"sonet/internal/wire"
)

// SimpleLink describes one overlay link in a single-ISP world: the two
// overlay nodes, the designed latency, and the link's loss behaviour.
type SimpleLink struct {
	// A and B are the endpoints.
	A, B wire.NodeID
	// Latency is the link's one-way latency.
	Latency time.Duration
	// Jitter adds uniform [0, Jitter) per-packet delay.
	Jitter time.Duration
	// Loss is the link's loss model (nil for lossless).
	Loss netemu.LossModel
}

// Simple is an overlay where every node occupies its own data center and
// every overlay link rides a dedicated fiber on a dedicated provider — the
// minimal world for protocol experiments where ISP-level redundancy is not
// under study. Dedicating a provider per link pins each overlay link to
// exactly its own fiber: otherwise the emulated IP layer would route some
// overlay links over other links' shorter fiber paths, and the measured
// link latencies would diverge from the designed topology.
type Simple struct {
	*Overlay
	// ISP is the provider of the first link (kept for provider-wide
	// degradation in single-bottleneck scenarios; Simple worlds with
	// several links have one provider per link, see ISPs).
	ISP netemu.ISPID
	// ISPs maps each overlay link to its dedicated provider.
	ISPs map[wire.LinkID]netemu.ISPID
	// Fibers maps each overlay link to its underlying fiber, for failure
	// injection.
	Fibers map[wire.LinkID]netemu.FiberID
}

// BuildSimple constructs (but does not start) a Simple world. Node
// configuration can be adjusted via SetNodeTemplate or AddNodeWithConfig
// before Start.
func BuildSimple(seed uint64, links []SimpleLink) (*Simple, error) {
	o := New(seed, netemu.DefaultConfig())
	s := &Simple{
		Overlay: o,
		ISPs:    make(map[wire.LinkID]netemu.ISPID, len(links)),
		Fibers:  make(map[wire.LinkID]netemu.FiberID, len(links)),
	}
	sites := make(map[wire.NodeID]netemu.SiteID)
	siteFor := func(n wire.NodeID) netemu.SiteID {
		if st, ok := sites[n]; ok {
			return st
		}
		st := o.AddSite(fmt.Sprintf("site-%d", n))
		sites[n] = st
		o.AddNode(n, st)
		return st
	}
	for i, l := range links {
		sa, sb := siteFor(l.A), siteFor(l.B)
		isp := o.AddISP(fmt.Sprintf("isp-%d", i+1))
		if i == 0 {
			s.ISP = isp
		}
		fid, err := o.AddFiber(isp, sa, sb, l.Latency, l.Jitter, l.Loss)
		if err != nil {
			return nil, fmt.Errorf("core: simple fiber %v-%v: %w", l.A, l.B, err)
		}
		lid, err := o.AddLink(l.A, l.B, l.Latency, isp)
		if err != nil {
			return nil, fmt.Errorf("core: simple link %v-%v: %w", l.A, l.B, err)
		}
		s.ISPs[lid] = isp
		s.Fibers[lid] = fid
	}
	return s, nil
}

// Join admits a runtime joiner into a running Simple world. Each new
// link gets its own dedicated provider and fiber exactly like the
// designed links (one endpoint of every SimpleLink must be id), then the
// overlay-level Join runs the growth absorption and — when dynamic
// membership is enabled — the in-band admission handshake through
// contact.
func (s *Simple) Join(id, contact wire.NodeID, links []SimpleLink, mutate func(*node.Config)) error {
	if len(links) == 0 {
		return fmt.Errorf("core: joining node %v needs at least one link", id)
	}
	site := s.AddSite(fmt.Sprintf("site-%d", id))
	type plumbing struct {
		peer  wire.NodeID
		isp   netemu.ISPID
		fiber netemu.FiberID
	}
	jls := make([]JoinLink, 0, len(links))
	plumb := make([]plumbing, 0, len(links))
	for _, l := range links {
		peer := l.B
		if peer == id {
			peer = l.A
		} else if l.A != id {
			return fmt.Errorf("core: join link %v-%v does not involve joiner %v", l.A, l.B, id)
		}
		peerSite, ok := s.SiteOf(peer)
		if !ok {
			return fmt.Errorf("core: join peer %v has no site", peer)
		}
		isp := s.AddISP(fmt.Sprintf("isp-j%d-%d", id, peer))
		fid, err := s.AddFiber(isp, site, peerSite, l.Latency, l.Jitter, l.Loss)
		if err != nil {
			return fmt.Errorf("core: join fiber %v-%v: %w", id, peer, err)
		}
		jls = append(jls, JoinLink{To: peer, Latency: l.Latency, ISPs: []netemu.ISPID{isp}})
		plumb = append(plumb, plumbing{peer: peer, isp: isp, fiber: fid})
	}
	if err := s.Overlay.Join(id, site, contact, jls, mutate); err != nil {
		return err
	}
	// Record each new link's dedicated provider and fiber so
	// CutLink/SetLinkExtraLoss work on joined links too.
	for _, p := range plumb {
		if l, ok := s.Graph.LinkBetween(id, p.peer); ok {
			s.ISPs[l.ID] = p.isp
			s.Fibers[l.ID] = p.fiber
		}
	}
	return nil
}

// SetLinkExtraLoss applies an added drop probability to the provider
// carrying one overlay link (a regional degradation knob).
func (s *Simple) SetLinkExtraLoss(a, b wire.NodeID, p float64) error {
	l, ok := s.Graph.LinkBetween(a, b)
	if !ok {
		return fmt.Errorf("core: no link %v-%v", a, b)
	}
	s.Net.SetISPExtraLoss(s.ISPs[l.ID], p)
	return nil
}

// CutLink severs the fiber under an overlay link.
func (s *Simple) CutLink(a, b wire.NodeID) error {
	l, ok := s.Graph.LinkBetween(a, b)
	if !ok {
		return fmt.Errorf("core: no link %v-%v", a, b)
	}
	s.Net.CutFiber(s.Fibers[l.ID])
	return nil
}

// RestoreLink repairs the fiber under an overlay link.
func (s *Simple) RestoreLink(a, b wire.NodeID) error {
	l, ok := s.Graph.LinkBetween(a, b)
	if !ok {
		return fmt.Errorf("core: no link %v-%v", a, b)
	}
	s.Net.RestoreFiber(s.Fibers[l.ID])
	return nil
}
