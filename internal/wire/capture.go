package wire

// CapturePacket copies src into dst for retention past the borrowing call
// (queues, retransmission state), backing dst's byte fields with a single
// pooled buffer instead of the fresh per-field allocations Clone
// performs. It returns the backing Buf — ownership transfers to the
// caller, who must Release it (or hand it on) once dst is no longer needed
// — or nil when src carries no bytes.
//
// dst's Sig and Payload alias the returned buffer: they are full-capacity
// subslices, so appending to either is a misuse (it would clobber the
// neighbouring field or the pool's recycled bytes).
func CapturePacket(dst, src *Packet, pool *BufPool) *Buf {
	size := len(src.Sig) + len(src.Payload)
	if size == 0 {
		*dst = *src
		dst.Sig, dst.Payload = nil, nil
		return nil
	}
	buf := pool.Get(size)
	buf.B = CaptureInto(dst, src, buf.B)
	return buf
}

// CaptureInto is CapturePacket into bytes the caller owns: src's Sig and
// Payload are packed into b[:0], grown if it is too small, dst's byte
// fields alias the result, and the result is returned for the caller to
// keep with dst and pass again when it captures over it. A long-lived
// holder whose entries outlast a pool's turnover uses this: the bytes are
// sized by the packets captured, not by a pool's size class.
func CaptureInto(dst, src *Packet, b []byte) []byte {
	*dst = *src
	ns, np := len(src.Sig), len(src.Payload)
	b = append(append(b[:0], src.Sig...), src.Payload...)
	dst.Sig, dst.Payload = nil, nil
	if ns > 0 {
		dst.Sig = b[:ns:ns]
	}
	if np > 0 {
		dst.Payload = b[ns:][:np:np]
	}
	return b
}
