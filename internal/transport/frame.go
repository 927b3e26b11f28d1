// Package transport runs the overlay over real networks: UDP datagrams
// carry link-level frames between overlay daemons, and a framed TCP
// protocol connects clients to their overlay node — the client–daemon
// two-level hierarchy of §II-B over actual sockets.
//
// The same protocol state machines that run in the emulator run here,
// driven by a real-time clock and a per-daemon event loop.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
)

// maxMessage bounds a framed client message.
const maxMessage = 1 << 20

// frameHeaderLen is the big-endian length prefix of every client frame.
const frameHeaderLen = 4

// frameBufSize is the frameReader's fixed buffer, and the largest write
// buffer a Client keeps: it holds any legal message (wire.MaxPayload plus
// headers) and several dozen typical ones, so one read(2) carries a whole
// burst.
const frameBufSize = 64 << 10

// appendFrame appends msg to dst as one length-prefixed frame, header and
// body contiguous so a single Write sends both.
func appendFrame(dst, msg []byte) ([]byte, error) {
	if len(msg) > maxMessage {
		return dst, fmt.Errorf("transport: message %d bytes exceeds %d", len(msg), maxMessage)
	}
	return append(appendFrameHeader(dst, len(msg)), msg...), nil
}

// appendFrameHeader appends the header of an n-byte frame; the caller
// appends exactly n body bytes behind it. The per-message paths encode
// their fields straight into the connection buffer this way instead of
// building a message slice first.
func appendFrameHeader(dst []byte, n int) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(n))
}

// frameReader decodes length-prefixed frames from a byte stream through
// one fixed buffer: a single Read of the underlying stream typically
// lands many frames, and next hands them out one by one as slices of
// that buffer without copying.
type frameReader struct {
	r   io.Reader
	buf []byte
	// buf[lo:hi] is read but not yet consumed.
	lo, hi int
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{r: r, buf: make([]byte, frameBufSize)}
}

// buffered reports whether a complete frame is already in the buffer, so
// the following next returns without touching the stream. A buffered
// header announcing an oversized frame counts: next reports its error
// without reading.
func (fr *frameReader) buffered() bool {
	avail := fr.hi - fr.lo
	if avail < frameHeaderLen {
		return false
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.lo:])
	return n > maxMessage || int(n) <= avail-frameHeaderLen
}

// next returns the body of the next frame. The slice aliases the reader's
// buffer and is valid only until the following call to next; a frame too
// large for the buffer is returned in freshly allocated scratch instead.
// The announced length is checked against maxMessage before anything is
// allocated or read for it.
func (fr *frameReader) next() ([]byte, error) {
	for {
		avail := fr.hi - fr.lo
		if avail >= frameHeaderLen {
			n := binary.BigEndian.Uint32(fr.buf[fr.lo:])
			if n > maxMessage {
				return nil, fmt.Errorf("transport: frame of %d bytes exceeds %d", n, maxMessage)
			}
			size := frameHeaderLen + int(n)
			if size <= avail {
				body := fr.buf[fr.lo+frameHeaderLen : fr.lo+size : fr.lo+size]
				fr.lo += size
				return body, nil
			}
			if size > len(fr.buf) {
				return fr.readLarge(int(n))
			}
		}
		if err := fr.fill(); err != nil {
			return nil, err
		}
	}
}

// fill moves the unconsumed partial frame to the front of the buffer and
// reads more of the stream behind it.
func (fr *frameReader) fill() error {
	if fr.lo > 0 {
		fr.hi = copy(fr.buf, fr.buf[fr.lo:fr.hi])
		fr.lo = 0
	}
	for {
		n, err := fr.r.Read(fr.buf[fr.hi:])
		fr.hi += n
		if n > 0 {
			return nil
		}
		if err != nil {
			if err == io.EOF && fr.hi > 0 {
				return io.ErrUnexpectedEOF
			}
			return err
		}
	}
}

// readLarge reads an n-byte frame body that cannot fit the fixed buffer
// into scratch of its own: the part already buffered is copied over, the
// rest comes straight from the stream.
func (fr *frameReader) readLarge(n int) ([]byte, error) {
	body := make([]byte, n)
	got := copy(body, fr.buf[fr.lo+frameHeaderLen:fr.hi])
	fr.lo, fr.hi = 0, 0
	if _, err := io.ReadFull(fr.r, body[got:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// Client–daemon message kinds.
const (
	msgConnect byte = iota + 1
	msgJoin
	msgLeave
	msgOpenFlow
	msgSend
	msgDeliver
	msgError
	msgOK
)
