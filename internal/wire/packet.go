package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Encoding errors.
var (
	// ErrTruncated reports input shorter than the encoding requires.
	ErrTruncated = errors.New("truncated input")
	// ErrMalformed reports structurally invalid input.
	ErrMalformed = errors.New("malformed input")
	// ErrTooLarge reports a packet exceeding the maximum encodable size.
	ErrTooLarge = errors.New("packet too large")
)

// MaxPayload is the maximum payload size carried by a single packet.
const MaxPayload = 60000

// MaxDatagram is the largest UDP payload a receive buffer must hold — the
// 64 KiB IPv4 datagram ceiling, comfortably above any marshaled frame
// (MaxPayload plus headers).
const MaxDatagram = 1 << 16

// ReadBatch is the number of datagrams a batch reader drains per wakeup,
// each into its own MaxDatagram segment of the reader's arena.
const ReadBatch = 32

// packetFixedLen is the size of the fixed portion of the packet header.
const packetFixedLen = 38

// Packet is the routing-level unit of the overlay (Fig. 2): the thing that
// is routed from the source overlay node to one or more destination overlay
// nodes. Link-level protocols wrap packets in Frames for each hop.
type Packet struct {
	// Type discriminates data packets from control packets.
	Type PacketType
	// Flags carries boolean attributes (signed, retransmission, anycast).
	Flags Flags
	// TTL bounds forwarding; it is decremented per overlay hop and packets
	// reaching zero are dropped.
	TTL uint8
	// Route selects the routing service for this packet.
	Route RouteKind
	// LinkProto selects the link-level protocol used on every hop.
	LinkProto LinkProtoID
	// Priority orders packets within intrusion-tolerant priority flows
	// (higher is more important).
	Priority uint8
	// Src is the originating overlay node.
	Src NodeID
	// Dst is the destination overlay node for unicast routing; it is zero
	// for multicast and flood routing.
	Dst NodeID
	// SrcPort and DstPort identify client endpoints within nodes.
	SrcPort, DstPort Port
	// Group is the multicast/anycast group, when applicable.
	Group GroupID
	// FlowSeq is the end-to-end sequence number within the flow.
	FlowSeq uint32
	// Origin is the send time at the source (virtual or real clock time
	// since the world epoch); destinations use it to measure one-way
	// latency and to enforce deadlines.
	Origin time.Duration
	// Deadline is the flow's one-way latency budget; zero means none.
	Deadline time.Duration
	// Mask is the source-route bitmask for RouteSourceMask packets.
	Mask Bitmask
	// Sig is the Ed25519 source signature when FSigned is set.
	Sig []byte
	// Payload is the application or control payload.
	Payload []byte
}

// Clone returns a deep copy of p, safe to mutate independently (TTL
// decrement, retransmission flagging) when a packet fans out over several
// links.
func (p *Packet) Clone() *Packet {
	cp := *p
	if p.Sig != nil {
		cp.Sig = append([]byte(nil), p.Sig...)
	}
	if p.Payload != nil {
		cp.Payload = append([]byte(nil), p.Payload...)
	}
	return &cp
}

// MarshaledSize returns the exact encoded size of p.
func (p *Packet) MarshaledSize() int {
	return packetFixedLen + 1 + p.Mask.wireLen() + 1 + len(p.Sig) + 2 + len(p.Payload)
}

// AppendMarshal appends the encoding of p to dst and returns the extended
// slice.
func (p *Packet) AppendMarshal(dst []byte) ([]byte, error) {
	if len(p.Payload) > MaxPayload {
		return dst, fmt.Errorf("wire: payload %d bytes: %w", len(p.Payload), ErrTooLarge)
	}
	if len(p.Sig) > 255 {
		return dst, fmt.Errorf("wire: signature %d bytes: %w", len(p.Sig), ErrTooLarge)
	}
	var hdr [packetFixedLen]byte
	hdr[0] = byte(p.Type)
	hdr[1] = byte(p.Flags)
	hdr[2] = p.TTL
	hdr[3] = byte(p.Route)
	hdr[4] = byte(p.LinkProto)
	hdr[5] = p.Priority
	binary.BigEndian.PutUint16(hdr[6:], uint16(p.Src))
	binary.BigEndian.PutUint16(hdr[8:], uint16(p.Dst))
	binary.BigEndian.PutUint16(hdr[10:], uint16(p.SrcPort))
	binary.BigEndian.PutUint16(hdr[12:], uint16(p.DstPort))
	binary.BigEndian.PutUint32(hdr[14:], uint32(p.Group))
	binary.BigEndian.PutUint32(hdr[18:], p.FlowSeq)
	binary.BigEndian.PutUint64(hdr[22:], uint64(p.Origin))
	binary.BigEndian.PutUint64(hdr[30:], uint64(p.Deadline))
	dst = append(dst, hdr[:]...)
	dst = appendMask(dst, p.Mask)
	dst = append(dst, byte(len(p.Sig)))
	dst = append(dst, p.Sig...)
	var plen [2]byte
	binary.BigEndian.PutUint16(plen[:], uint16(len(p.Payload)))
	dst = append(dst, plen[:]...)
	dst = append(dst, p.Payload...)
	return dst, nil
}

// Marshal encodes p into a fresh buffer.
func (p *Packet) Marshal() ([]byte, error) {
	return p.AppendMarshal(make([]byte, 0, p.MarshaledSize()))
}

// UnmarshalPacketInto decodes a packet into p without allocating: p.Sig and
// p.Payload alias src, so p borrows src and is valid only as long as src is.
// Callers that keep the packet past the lifetime of src must Clone it. All
// fields of p are overwritten. A LinkProto of zero is a control packet's,
// which leaves it unset and travels best effort; one above LPITReliable is
// malformed. Returns any trailing bytes.
func UnmarshalPacketInto(p *Packet, src []byte) ([]byte, error) {
	if len(src) < packetFixedLen {
		return nil, fmt.Errorf("wire: packet header: %w", ErrTruncated)
	}
	*p = Packet{
		Type:      PacketType(src[0]),
		Flags:     Flags(src[1]),
		TTL:       src[2],
		Route:     RouteKind(src[3]),
		LinkProto: LinkProtoID(src[4]),
		Priority:  src[5],
		Src:       NodeID(binary.BigEndian.Uint16(src[6:])),
		Dst:       NodeID(binary.BigEndian.Uint16(src[8:])),
		SrcPort:   Port(binary.BigEndian.Uint16(src[10:])),
		DstPort:   Port(binary.BigEndian.Uint16(src[12:])),
		Group:     GroupID(binary.BigEndian.Uint32(src[14:])),
		FlowSeq:   binary.BigEndian.Uint32(src[18:]),
		Origin:    time.Duration(binary.BigEndian.Uint64(src[22:])),
		Deadline:  time.Duration(binary.BigEndian.Uint64(src[30:])),
	}
	if p.LinkProto > LPITReliable {
		return nil, fmt.Errorf("wire: packet link protocol %d: %w", src[4], ErrMalformed)
	}
	rest := src[packetFixedLen:]
	var err error
	p.Mask, rest, err = readMask(rest)
	if err != nil {
		return nil, err
	}
	if len(rest) < 1 {
		return nil, fmt.Errorf("wire: signature length: %w", ErrTruncated)
	}
	sigLen := int(rest[0])
	rest = rest[1:]
	if len(rest) < sigLen {
		return nil, fmt.Errorf("wire: signature body: %w", ErrTruncated)
	}
	if sigLen > 0 {
		p.Sig = rest[:sigLen:sigLen]
	}
	rest = rest[sigLen:]
	if len(rest) < 2 {
		return nil, fmt.Errorf("wire: payload length: %w", ErrTruncated)
	}
	payLen := int(binary.BigEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < payLen {
		return nil, fmt.Errorf("wire: payload body: %w", ErrTruncated)
	}
	if payLen > 0 {
		p.Payload = rest[:payLen:payLen]
	}
	return rest[payLen:], nil
}

// UnmarshalPacket decodes a packet into a fresh, fully owned value (its
// byte fields are copies, not aliases of src) and returns trailing bytes.
func UnmarshalPacket(src []byte) (*Packet, []byte, error) {
	p := &Packet{}
	rest, err := UnmarshalPacketInto(p, src)
	if err != nil {
		return nil, nil, err
	}
	if p.Sig != nil {
		p.Sig = append([]byte(nil), p.Sig...)
	}
	if p.Payload != nil {
		p.Payload = append([]byte(nil), p.Payload...)
	}
	return p, rest, nil
}

// AppendSignable appends the canonical encoding of p used for source
// signatures to dst: the signature field is empty and the hop-mutable TTL
// is zeroed, so the signature stays valid as the packet is forwarded.
func (p *Packet) AppendSignable(dst []byte) ([]byte, error) {
	cp := *p
	cp.TTL = 0
	cp.Sig = nil
	return cp.AppendMarshal(dst)
}
