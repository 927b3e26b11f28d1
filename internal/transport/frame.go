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
	"net"
	"sync"
)

// maxMessage bounds a framed client message.
const maxMessage = 1 << 20

// frameHeaderLen is the big-endian length prefix of every client frame.
const frameHeaderLen = 4

// frameBufSize is the frameReader's fixed buffer: it holds any legal
// message (wire.MaxPayload plus headers) and several dozen typical ones,
// so one read(2) carries a whole burst.
const frameBufSize = 64 << 10

// appendFrameHeader appends the header of an n-byte frame; the caller
// appends exactly n body bytes behind it, so that header and body are
// contiguous and one Write sends both. Messages are encoded straight into
// the connection's egress buffer this way, without a message slice first.
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

// clientSendBound is the queued bytes at which a Client's Send waits for
// its writer. It decides how a client's window travels: sent in one large
// write, the three daemons of chain3-video-be work it one stage at a time
// (1.07 of 2 cores busy, against 1.7 with a write per message); a few
// frames per write keep several writes in flight, and the stages overlap.
// Against a write per message (2-vCPU guest, parent/change pairs),
// cpu_us_per_msg / msgs_per_s moved −22 % / −19 % at 256 KiB, −20 % / −21 %
// at 64 KiB, −26 % / −2 % at 16 KiB and −27 % / +12 % at 8 KiB.
const clientSendBound = 8 << 10

// egressRetain is the largest write buffer an edgeWriter keeps between
// flushes, a full daemon queue of kilobyte messages; a larger burst's
// buffer is let go.
const egressRetain = clientQueueLen << 10

// edgeWriter is the one writer of a client-protocol connection, on both
// sides of the hop: producers encode frames into out under mu, and run
// writes everything queued with one Write per wakeup. A frame that finds
// run idle leaves at once; frames coalesce only while a Write is in the
// kernel. A full queue is each side's policy: the daemon drops (offer), a
// client waits (put).
type edgeWriter struct {
	conn net.Conn
	done chan struct{} // closed when run returns

	mu     sync.Mutex
	cond   sync.Cond
	out    []byte // frames run has yet to take
	msgs   int    // frames in out
	closed bool
	err    error // the failed Write's; run has stopped
}

func newEdgeWriter(conn net.Conn) *edgeWriter {
	w := &edgeWriter{conn: conn, done: make(chan struct{})}
	w.cond.L = &w.mu
	return w
}

// put queues one frame, hdr followed by payload, waiting while
// clientSendBound bytes are queued, as a Write waits on a full TCP window.
// After close it fails with errClientClosed, after a failed Write with
// that Write's error.
func (w *edgeWriter) put(hdr, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.out) >= clientSendBound && !w.closed && w.err == nil {
		w.cond.Wait()
	}
	if w.closed {
		return errClientClosed
	}
	if w.err == nil {
		w.queue(hdr, payload)
	}
	return w.err
}

// offer queues one frame unless clientQueueLen frames wait, and reports
// false, a drop for the caller to count, if they do. A frame for a closed
// or failed edge goes nowhere and is not a drop.
func (w *edgeWriter) offer(hdr, payload []byte) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.err != nil {
		return true
	}
	if w.msgs >= clientQueueLen {
		return false
	}
	w.queue(hdr, payload)
	return true
}

// queue appends one frame and wakes run. Signal reaches run: a put waits
// only on a full queue, and run wakes every waiter when it takes the queue.
func (w *edgeWriter) queue(hdr, payload []byte) {
	w.out = appendFrameHeader(w.out, len(hdr)+len(payload))
	w.out = append(append(w.out, hdr...), payload...)
	w.msgs++
	w.cond.Signal()
}

// close lets run return once what is queued is written and fails every
// put from now on; false means it was closed already.
func (w *edgeWriter) close() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.closed = true
	w.cond.Broadcast()
	return true
}

// run is the writer goroutine; flushed learns how many frames each Write
// carried. A failed Write stops it: the error is kept for put, and the
// connection is closed, so its reader ends the edge too.
func (w *edgeWriter) run(flushed func(frames int)) {
	defer close(w.done)
	var buf []byte
	for {
		w.mu.Lock()
		for w.msgs == 0 && !w.closed {
			w.cond.Wait()
		}
		if w.msgs == 0 {
			w.mu.Unlock()
			return
		}
		buf, w.out = w.out, buf[:0]
		n := w.msgs
		w.msgs = 0
		w.cond.Broadcast()
		w.mu.Unlock()
		if _, err := w.conn.Write(buf); err != nil {
			w.mu.Lock()
			w.err = fmt.Errorf("transport: write frame: %w", err)
			w.cond.Broadcast()
			w.mu.Unlock()
			_ = w.conn.Close()
			return
		}
		flushed(n)
		if cap(buf) > egressRetain {
			buf = nil
		}
	}
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
