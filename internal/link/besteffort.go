package link

import "sonet/internal/wire"

// BestEffort transmits each packet exactly once with no recovery — the
// overlay analogue of plain IP forwarding, and the base link service for
// traffic whose own protocol handles (or tolerates) loss. It retains
// nothing, so it never clones: a borrowed packet goes straight into a
// scratch frame that Transmit marshals synchronously.
type BestEffort struct {
	env   Env
	stats Stats
	// tx is the reusable frame for the allocation-free send path; Transmit
	// borrows it, so reusing it across Sends is safe.
	tx wire.Frame
}

var _ Protocol = (*BestEffort)(nil)

// NewBestEffort returns a best-effort link endpoint.
func NewBestEffort(env Env) *BestEffort {
	return &BestEffort{env: env}
}

// Send implements Protocol.
func (b *BestEffort) Send(p *wire.Packet) {
	b.stats.DataSent++
	b.tx = wire.Frame{
		Proto:    wire.LPBestEffort,
		Kind:     wire.FData,
		SendTime: b.env.Clock().Now(),
		Packet:   p,
	}
	b.env.Transmit(&b.tx)
}

// SendStored is Send for a packet a pacing queue captured into buf: there
// is nothing to retain, so the buffer is released as soon as the frame is
// marshaled. buf may be nil for a byteless packet.
func (b *BestEffort) SendStored(p *wire.Packet, buf *wire.Buf) {
	b.Send(p)
	if buf != nil {
		buf.Release()
	}
}

// HandleFrame implements Protocol.
func (b *BestEffort) HandleFrame(f *wire.Frame) {
	if f.Kind != wire.FData || f.Packet == nil {
		return
	}
	b.stats.Delivered++
	b.env.Deliver(f.Packet)
}

// Stats implements Protocol.
func (b *BestEffort) Stats() Stats { return b.stats }

// Close implements Protocol.
func (b *BestEffort) Close() {}
