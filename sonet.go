// Package sonet is a structured overlay network framework: a clean-room
// Go implementation of the architecture described in "Structured Overlay
// Networks for a New Generation of Internet Services" (Babay et al.,
// ICDCS 2017) — the Spines-style overlay of a few tens of well-situated
// nodes that provides services the Internet does not natively support.
//
// The framework realizes the paper's three principles:
//
//   - A resilient network architecture: overlay nodes in data centers,
//     multihomed across ISP backbones, joined by short overlay links with
//     sub-second failure detection and rerouting (§II-A).
//   - An overlay node software architecture with shared global state: a
//     session interface over a routing level (link-state and source-based
//     bitmask routing, connectivity-graph and group-state maintenance)
//     over pluggable link-level protocols — Best Effort, hop-by-hop
//     Reliable Data Link, real-time NM-Strikes, and intrusion-tolerant
//     Priority/Reliable fair forwarding (§II-B, Fig. 2).
//   - Flow-based processing: clients open flows that select the routing
//     service × link protocol × delivery semantics combination that suits
//     each application (§II-C).
//
// The same protocol code runs in two modes: deterministically in virtual
// time over an emulated multi-ISP underlay (Network, used by every
// benchmark and example), and over real UDP sockets via the daemon in
// cmd/sonetd.
package sonet

import (
	"time"

	"sonet/internal/topology"
	"sonet/internal/wire"
)

// NodeID identifies an overlay node (nonzero).
type NodeID = wire.NodeID

// Port is a virtual port; NodeID + Port addresses a client, mimicking the
// Internet's IP-plus-port scheme.
type Port = wire.Port

// GroupID is a multicast/anycast group address.
type GroupID = wire.GroupID

// LinkService selects the link-level protocol applied on every overlay
// hop of a flow (the Fig. 2 link level).
type LinkService = wire.LinkProtoID

// Link services.
const (
	// BestEffort transmits once per hop with no recovery.
	BestEffort LinkService = wire.LPBestEffort
	// Reliable is the hop-by-hop Reliable Data Link: ARQ recovery on
	// every overlay link with out-of-order forwarding (§III-A).
	Reliable LinkService = wire.LPReliable
	// RealTime is the NM-Strikes protocol: timeliness guaranteed, N
	// spaced requests × M spaced retransmissions per loss (§IV-A).
	RealTime LinkService = wire.LPRealTime
	// SingleStrike is the VoIP-era one-request/one-retransmission
	// recovery protocol (§V-A).
	SingleStrike LinkService = wire.LPSingleStrike
	// ITPriority is intrusion-tolerant priority messaging: per-source
	// fair buffers with priority eviction (§IV-B).
	ITPriority LinkService = wire.LPITPriority
	// ITReliable is intrusion-tolerant reliable messaging: per-flow fair
	// buffers with backpressure (§IV-B).
	ITReliable LinkService = wire.LPITReliable
)

// ProblemArea steers dissemination-graph construction (§V-A).
type ProblemArea = topology.ProblemArea

// Problem areas for dissemination graphs.
const (
	// ProblemNone selects the static two-node-disjoint-paths graph.
	ProblemNone ProblemArea = topology.ProblemNone
	// ProblemSource adds targeted redundancy around the source.
	ProblemSource ProblemArea = topology.ProblemSource
	// ProblemDest adds targeted redundancy around the destination.
	ProblemDest ProblemArea = topology.ProblemDest
	// ProblemBoth adds redundancy around both endpoints.
	ProblemBoth ProblemArea = topology.ProblemBoth
)

// FlowSpec selects the overlay services for one application flow: its
// destination (a node or a group), routing service, link service, and
// delivery semantics.
type FlowSpec struct {
	// To and ToPort address a unicast destination client.
	To NodeID
	// ToPort is the destination virtual port (group members listen on it
	// for group flows).
	ToPort Port
	// Group addresses a multicast or anycast group instead of a node.
	Group GroupID
	// Anycast delivers each message to exactly one group member — the
	// nearest under the routing metric.
	Anycast bool
	// Service is the link-level protocol for every hop (default
	// BestEffort).
	Service LinkService
	// DisjointPaths, when positive, sends every message over that many
	// node-disjoint paths, tolerating DisjointPaths−1 compromised nodes
	// (§IV-B).
	DisjointPaths int
	// DissemGraph, when set, routes over a dissemination graph tailored
	// to the given problem area; overrides DisjointPaths (§V-A).
	DissemGraph ProblemArea
	// Flood sends every message by constrained flooding: delivery is
	// guaranteed while any path of correct nodes exists (§IV-B).
	Flood bool
	// Ordered delivers in sequence at the destination. Combined with a
	// zero Deadline this selects the completely reliable transport
	// service (end-to-end recovery); with a Deadline it selects the
	// real-time reorder buffer that discards late packets (§IV-A). An
	// ordered group flow needs a Deadline: OpenFlow refuses one without.
	Ordered bool
	// Deadline is the one-way latency budget; late packets are discarded
	// at the destination.
	Deadline time.Duration
	// Priority orders messages within intrusion-tolerant priority flows
	// (higher first).
	Priority uint8
}

// Delivery is one message handed to a client.
type Delivery struct {
	// From identifies the source node.
	From NodeID
	// FromPort is the source client's virtual port.
	FromPort Port
	// Seq is the flow sequence number.
	Seq uint32
	// Group is set for multicast deliveries.
	Group GroupID
	// Latency is the one-way delay from origination, including any
	// recovery.
	Latency time.Duration
	// Recovered marks messages whose delivered copy was retransmitted
	// somewhere along the way.
	Recovered bool
	// Payload is the application data, the application's to keep. An
	// OnDeliver or DialDaemon delivery carves it from a chunk it shares
	// with other payloads, so an application that retains a sparse few
	// long after the rest should copy them rather than keep every chunk
	// alive.
	Payload []byte
}
