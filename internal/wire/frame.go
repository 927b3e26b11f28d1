package wire

import (
	"encoding/binary"
	"fmt"
	"time"
)

// FrameKind discriminates link-level frames.
type FrameKind uint8

// Frame kinds.
const (
	// FData carries a routing-level packet one hop.
	FData FrameKind = iota + 1
	// FAck acknowledges link sequence numbers (cumulative + selective).
	FAck
	// FReq requests retransmission of a link sequence number (NM-Strikes
	// and Reliable Data Link NACK).
	FReq
	// FHello probes a neighbor for liveness and link metrics.
	FHello
	// FHelloAck answers an FHello, echoing its send time.
	FHelloAck
)

// String returns a short mnemonic for the frame kind.
func (k FrameKind) String() string {
	switch k {
	case FData:
		return "data"
	case FAck:
		return "ack"
	case FReq:
		return "req"
	case FHello:
		return "hello"
	case FHelloAck:
		return "helloack"
	default:
		return fmt.Sprintf("fk(%d)", uint8(k))
	}
}

// frameFixedLen is the size of the fixed portion of the frame header.
const frameFixedLen = 28

const (
	frameHasPacket = 1 << iota
	frameHasAuth
)

// Frame is the link-level unit exchanged between neighboring overlay
// nodes. Link protocols (Fig. 2 link level) wrap routing-level Packets in
// frames, adding per-hop sequencing, acknowledgment, and recovery state.
type Frame struct {
	// Proto identifies the link protocol instance this frame belongs to;
	// each overlay link multiplexes independent protocol instances.
	Proto LinkProtoID
	// Kind discriminates data from control frames.
	Kind FrameKind
	// Seq is the link-level sequence number of a data frame, or the
	// requested sequence number in an FReq.
	Seq uint32
	// Ack is the cumulative acknowledgment: every sequence <= Ack has been
	// received.
	Ack uint32
	// AckBits selectively acknowledges sequences Ack+1..Ack+64: bit i set
	// means Ack+1+i was received.
	AckBits uint64
	// SendTime is the sender's clock when the frame was transmitted, echoed
	// in hello exchanges to measure RTT.
	SendTime time.Duration
	// Auth is an optional per-link HMAC over the frame (intrusion-tolerant
	// overlays authenticate every hop).
	Auth []byte
	// Packet is the wrapped routing-level packet for FData frames.
	Packet *Packet
}

// AppendMarshal appends the encoding of f to dst.
func (f *Frame) AppendMarshal(dst []byte) ([]byte, error) {
	if len(f.Auth) > 255 {
		return dst, fmt.Errorf("wire: frame auth %d bytes: %w", len(f.Auth), ErrTooLarge)
	}
	var hdr [frameFixedLen]byte
	hdr[0] = byte(f.Proto)
	hdr[1] = byte(f.Kind)
	var flags byte
	if f.Packet != nil {
		flags |= frameHasPacket
	}
	if len(f.Auth) > 0 {
		flags |= frameHasAuth
	}
	hdr[2] = flags
	binary.BigEndian.PutUint32(hdr[4:], f.Seq)
	binary.BigEndian.PutUint32(hdr[8:], f.Ack)
	binary.BigEndian.PutUint64(hdr[12:], f.AckBits)
	binary.BigEndian.PutUint64(hdr[20:], uint64(f.SendTime))
	dst = append(dst, hdr[:]...)
	if len(f.Auth) > 0 {
		dst = append(dst, byte(len(f.Auth)))
		dst = append(dst, f.Auth...)
	}
	if f.Packet != nil {
		var err error
		dst, err = f.Packet.AppendMarshal(dst)
		if err != nil {
			return dst, fmt.Errorf("wire: frame packet: %w", err)
		}
	}
	return dst, nil
}

// MarshaledSize returns the exact encoded size of f.
func (f *Frame) MarshaledSize() int {
	size := frameFixedLen
	if len(f.Auth) > 0 {
		size += 1 + len(f.Auth)
	}
	if f.Packet != nil {
		size += f.Packet.MarshaledSize()
	}
	return size
}

// Marshal encodes f into a fresh buffer.
func (f *Frame) Marshal() ([]byte, error) {
	return f.AppendMarshal(make([]byte, 0, f.MarshaledSize()))
}

// UnmarshalFrameInto decodes a frame into f without allocating: the frame's
// wrapped packet (if any) is decoded into pkt, and f.Auth plus the packet's
// Sig/Payload alias src. The decoded frame borrows src and pkt; callers
// that keep it past the lifetime of either must Clone the packet and copy
// Auth. All fields of f are overwritten. A frame badged with no defined
// link protocol is malformed: every endpoint a receiver builds is for one
// of them. Returns any trailing bytes.
func UnmarshalFrameInto(f *Frame, pkt *Packet, src []byte) ([]byte, error) {
	if len(src) < frameFixedLen {
		return nil, fmt.Errorf("wire: frame header: %w", ErrTruncated)
	}
	*f = Frame{
		Proto:    LinkProtoID(src[0]),
		Kind:     FrameKind(src[1]),
		Seq:      binary.BigEndian.Uint32(src[4:]),
		Ack:      binary.BigEndian.Uint32(src[8:]),
		AckBits:  binary.BigEndian.Uint64(src[12:]),
		SendTime: time.Duration(binary.BigEndian.Uint64(src[20:])),
	}
	if f.Proto < LPBestEffort || f.Proto > LPITReliable {
		return nil, fmt.Errorf("wire: frame link protocol %d: %w", src[0], ErrMalformed)
	}
	flags := src[2]
	rest := src[frameFixedLen:]
	if flags&frameHasAuth != 0 {
		if len(rest) < 1 {
			return nil, fmt.Errorf("wire: frame auth length: %w", ErrTruncated)
		}
		authLen := int(rest[0])
		rest = rest[1:]
		if len(rest) < authLen {
			return nil, fmt.Errorf("wire: frame auth body: %w", ErrTruncated)
		}
		if authLen > 0 {
			f.Auth = rest[:authLen:authLen]
		}
		rest = rest[authLen:]
	}
	if flags&frameHasPacket != 0 {
		var err error
		rest, err = UnmarshalPacketInto(pkt, rest)
		if err != nil {
			return nil, fmt.Errorf("wire: frame packet: %w", err)
		}
		f.Packet = pkt
	}
	return rest, nil
}

// UnmarshalFrame decodes a frame into fresh, fully owned values and returns
// any trailing bytes.
func UnmarshalFrame(src []byte) (*Frame, []byte, error) {
	f := &Frame{}
	rest, err := UnmarshalFrameInto(f, &Packet{}, src)
	if err != nil {
		return nil, nil, err
	}
	if f.Auth != nil {
		f.Auth = append([]byte(nil), f.Auth...)
	}
	if f.Packet != nil {
		if f.Packet.Sig != nil {
			f.Packet.Sig = append([]byte(nil), f.Packet.Sig...)
		}
		if f.Packet.Payload != nil {
			f.Packet.Payload = append([]byte(nil), f.Packet.Payload...)
		}
	}
	return f, rest, nil
}

// AppendAuthable appends the canonical encoding of f used for per-link
// HMACs to dst: the Auth field is omitted so the MAC covers everything
// else.
func (f *Frame) AppendAuthable(dst []byte) ([]byte, error) {
	cp := *f
	cp.Auth = nil
	return cp.AppendMarshal(dst)
}
