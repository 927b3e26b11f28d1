// Package wire defines the binary message formats exchanged by overlay
// nodes: routing-level Packets and link-level Frames, together with the
// identifier spaces (node, port, group, link) used throughout the overlay.
//
// The same encoding is used by the in-process network emulator and by the
// real UDP transport, so every experiment exercises the production
// marshaling path.
package wire

import (
	"fmt"
	"unsafe"
)

// NodeID identifies an overlay node. The zero value is invalid; node
// identifiers are assigned from 1 upward when the overlay topology is
// defined.
type NodeID uint16

// String renders the node ID as "n<id>".
func (n NodeID) String() string { return fmt.Sprintf("n%d", uint16(n)) }

// NodeTable is a per-node table: the entry for node id is t[id], and the
// table grows to cover an ID when an entry is first stored under it. A
// lookup is a bounds check and a load where a map would hash, and a walk
// visits entries in ascending ID order. A NodeID is 16 bits, so a table
// holds at most 65 536 entries however sparse the IDs: 512 KiB with
// entries of at most 8 bytes (a pointer or a small value), 1.5 MiB with
// slice entries.
type NodeTable[T any] []T

// At returns the entry for id, or the zero value when none is stored.
func (t NodeTable[T]) At(id NodeID) T {
	if int(id) < len(t) {
		return t[id]
	}
	var zero T
	return zero
}

// Put stores v as the entry for id, growing the table to cover id. The
// length is computed in int: NodeID(0xffff)+1 wraps to 0.
func (t *NodeTable[T]) Put(id NodeID, v T) {
	if n := int(id) + 1; n > len(*t) {
		*t = append(*t, make([]T, n-len(*t))...)
	}
	(*t)[id] = v
}

// Bytes returns the memory the table holds: its capacity times the entry
// size.
func (t NodeTable[T]) Bytes() int {
	var zero T
	return cap(t) * int(unsafe.Sizeof(zero))
}

// Port is a virtual port in the overlay addressing scheme. Together with a
// NodeID it identifies a client endpoint, mimicking the Internet's
// IP-address-plus-port scheme as described in §II-B of the paper.
type Port uint16

// GroupID is a multicast or anycast group address. Groups live in their own
// address space, analogous to the IP multicast range.
type GroupID uint32

// String renders the group ID as "g<id>".
func (g GroupID) String() string { return fmt.Sprintf("g%d", uint32(g)) }

// LinkID indexes an overlay link in the topology's link registry. Source
// based routing stamps packets with a bitmask in which bit i corresponds to
// LinkID i (§II-B: "each bit in the bitmask represents an overlay link").
type LinkID uint16

// PacketType discriminates routing-level packets.
type PacketType uint8

// Packet types. Control packets (link-state, group-state, hello) carry
// their component-specific payloads opaquely; the owning component defines
// the payload encoding.
const (
	PTData PacketType = iota + 1
	PTLinkState
	PTGroupState
	PTHello
	PTHelloAck
	PTSessionCtl
	// PTMembership carries the dynamic-membership protocol: join requests,
	// member-directory updates, view digests, and full-directory syncs.
	PTMembership
)

// String returns a short mnemonic for the packet type.
func (t PacketType) String() string {
	switch t {
	case PTData:
		return "data"
	case PTLinkState:
		return "linkstate"
	case PTGroupState:
		return "groupstate"
	case PTHello:
		return "hello"
	case PTHelloAck:
		return "helloack"
	case PTSessionCtl:
		return "sessionctl"
	case PTMembership:
		return "membership"
	default:
		return fmt.Sprintf("pt(%d)", uint8(t))
	}
}

// RouteKind selects the routing service applied to a packet (Fig. 2
// routing level).
type RouteKind uint8

// Routing services.
const (
	// RouteLinkState forwards hop by hop toward Dst using each node's
	// current shortest-path table.
	RouteLinkState RouteKind = iota + 1
	// RouteSourceMask forwards along exactly the overlay links whose bits
	// are set in the packet's Mask (disjoint paths, dissemination graphs).
	RouteSourceMask
	// RouteMulticast forwards along the source-rooted multicast tree for
	// the packet's Group.
	RouteMulticast
	// RouteFlood performs constrained flooding on the overlay topology:
	// every node forwards on all links except the incoming one, with
	// duplicate suppression.
	RouteFlood
)

// String returns a short mnemonic for the route kind.
func (r RouteKind) String() string {
	switch r {
	case RouteLinkState:
		return "linkstate"
	case RouteSourceMask:
		return "sourcemask"
	case RouteMulticast:
		return "multicast"
	case RouteFlood:
		return "flood"
	default:
		return fmt.Sprintf("route(%d)", uint8(r))
	}
}

// LinkProtoID selects the link-level protocol applied on each overlay-link
// hop of a flow (Fig. 2 link level).
type LinkProtoID uint8

// Link-level protocols.
const (
	// LPBestEffort transmits once with no recovery.
	LPBestEffort LinkProtoID = iota + 1
	// LPReliable is the hop-by-hop Reliable Data Link: ARQ with sliding
	// window, NACK-triggered and RTO-triggered retransmission, and
	// out-of-order forwarding at intermediate nodes.
	LPReliable
	// LPRealTime is the NM-Strikes real-time recovery protocol: N spaced
	// retransmission requests by the receiver, M spaced retransmissions by
	// the sender, bounded by the flow deadline.
	LPRealTime
	// LPSingleStrike is the VoIP-era predecessor of NM-Strikes permitting
	// one request and one retransmission per lost packet.
	LPSingleStrike
	// LPITPriority is intrusion-tolerant priority messaging: per-source
	// buffers with priority eviction and round-robin forwarding.
	LPITPriority
	// LPITReliable is intrusion-tolerant reliable messaging: per-flow
	// buffers with backpressure and round-robin forwarding.
	LPITReliable
)

// String returns a short mnemonic for the link protocol.
func (p LinkProtoID) String() string {
	switch p {
	case LPBestEffort:
		return "besteffort"
	case LPReliable:
		return "reliable"
	case LPRealTime:
		return "realtime"
	case LPSingleStrike:
		return "singlestrike"
	case LPITPriority:
		return "it-priority"
	case LPITReliable:
		return "it-reliable"
	default:
		return fmt.Sprintf("lp(%d)", uint8(p))
	}
}

// ParseLinkProto is the inverse of String over the defined protocols: it
// reports the protocol whose mnemonic is name, and false for any other
// string.
func ParseLinkProto(name string) (LinkProtoID, bool) {
	for p := LPBestEffort; p <= LPITReliable; p++ {
		if p.String() == name {
			return p, true
		}
	}
	return 0, false
}

// Flags carries per-packet boolean attributes.
type Flags uint8

// Packet flags.
const (
	// FSigned marks a packet carrying an Ed25519 source signature
	// (intrusion-tolerant messaging).
	FSigned Flags = 1 << iota
	// FRetrans marks a retransmitted copy of a data packet.
	FRetrans
	// FAnycast marks a packet addressed to a group from which the ingress
	// node must select a single member.
	FAnycast
	// FOrdered asks the destination session layer to deliver the flow in
	// sequence order (buffering gaps; §III-A: the final destination is
	// responsible for buffering received packets until they can be
	// delivered in order).
	FOrdered
)

// Has reports whether every flag in mask is set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }
