package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"sonet/internal/session"
	"sonet/internal/wire"
)

// Client speaks the framed TCP session protocol to an overlay daemon —
// the remote half of the client–daemon hierarchy (§II-B). It is safe for
// concurrent use.
type Client struct {
	conn net.Conn

	// w carries every request, in call order, to the connection's one
	// writer goroutine.
	w *edgeWriter

	mu       sync.Mutex
	nextFlow uint16
	port     wire.Port
	onErr    func(error)

	deliver   func(session.Delivery)
	connected chan wire.Port
	done      chan struct{}
}

// errClientClosed is returned by every request on a closed client.
var errClientClosed = errors.New("transport: client closed")

// Dial connects to a daemon's client listener and binds the given virtual
// port (zero for ephemeral). deliver receives incoming messages, on the
// client's read goroutine. Each Delivery's Payload is the application's to
// keep: it is carved from a chunk shared with other payloads, so an
// application that retains a sparse few long after the rest should copy
// them rather than keep every chunk alive.
func Dial(addr string, port wire.Port, deliver func(session.Delivery)) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q: %w", addr, err)
	}
	return newClient(conn, port, deliver)
}

// newClient runs the connect handshake over an established connection,
// which it owns from here on.
func newClient(conn net.Conn, port wire.Port, deliver func(session.Delivery)) (*Client, error) {
	c := &Client{
		conn:      conn,
		w:         newEdgeWriter(conn),
		deliver:   deliver,
		connected: make(chan wire.Port, 1),
		done:      make(chan struct{}),
	}
	go c.readLoop()
	go c.w.run(func(int) {})
	req := make([]byte, 3)
	req[0] = msgConnect
	binary.BigEndian.PutUint16(req[1:], uint16(port))
	err := c.w.put(req, nil)
	if err == nil {
		select {
		case p, ok := <-c.connected:
			if ok {
				c.port = p // c is not shared yet
				return c, nil
			}
			err = fmt.Errorf("transport: daemon refused connect")
		case <-time.After(5 * time.Second):
			err = fmt.Errorf("transport: connect timeout")
		}
	}
	_ = c.Close()
	return nil, err
}

// Port returns the bound virtual port.
func (c *Client) Port() wire.Port {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.port
}

// OnError installs a callback for asynchronous daemon errors.
func (c *Client) OnError(fn func(error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onErr = fn
}

// Close writes what is already queued and terminates the session. A
// daemon that stopped reading gets a second to take the queue, so Close
// returns promptly either way, and a Send waiting for room returns
// errClientClosed. Close returns the sticky write error, if there is one.
func (c *Client) Close() error {
	if !c.w.close() {
		return nil
	}
	_ = c.conn.SetDeadline(time.Now().Add(time.Second))
	<-c.w.done
	err := c.w.err // run has returned
	// Closing with replies unread would reset the connection, and a reset
	// discards what the daemon has not read yet: half-close, and read on
	// until the daemon closes its end.
	if hc, ok := c.conn.(interface{ CloseWrite() error }); ok && err == nil && hc.CloseWrite() == nil {
		<-c.done
	}
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	<-c.done
	return err
}

// Join subscribes the client's node to a multicast group.
func (c *Client) Join(g wire.GroupID) error {
	msg := make([]byte, 5)
	msg[0] = msgJoin
	binary.BigEndian.PutUint32(msg[1:], uint32(g))
	return c.w.put(msg, nil)
}

// Leave unsubscribes from a multicast group.
func (c *Client) Leave(g wire.GroupID) error {
	msg := make([]byte, 5)
	msg[0] = msgLeave
	binary.BigEndian.PutUint32(msg[1:], uint32(g))
	return c.w.put(msg, nil)
}

// RemoteFlow is a flow opened over the client protocol.
type RemoteFlow struct {
	c  *Client
	id uint16
}

// wireDeadlineLimit is the first deadline the client protocol's 32-bit
// count of microseconds cannot carry.
const wireDeadlineLimit = 1 << 32 * time.Microsecond

// OpenFlow opens a flow with the given service selection. A DisjointK or
// Deadline the client protocol cannot carry (more than 255 paths, or a
// deadline of 2^32 µs, about 71.6 min, or more) is refused here, and so
// is a negative one, rather than arriving at the daemon truncated.
func (c *Client) OpenFlow(spec session.FlowSpec) (*RemoteFlow, error) {
	if spec.DisjointK < 0 || spec.DisjointK > 0xff || spec.Deadline < 0 || spec.Deadline >= wireDeadlineLimit {
		return nil, fmt.Errorf("transport: disjoint path count %d (0..255) or deadline %v ([0, %v)) out of range", spec.DisjointK, spec.Deadline, wireDeadlineLimit)
	}
	c.mu.Lock()
	c.nextFlow++
	id := c.nextFlow
	c.mu.Unlock()
	msg := make([]byte, 20)
	msg[0] = msgOpenFlow
	binary.BigEndian.PutUint16(msg[1:], id)
	binary.BigEndian.PutUint16(msg[3:], uint16(spec.DstNode))
	binary.BigEndian.PutUint16(msg[5:], uint16(spec.DstPort))
	binary.BigEndian.PutUint32(msg[7:], uint32(spec.Group))
	var flags byte
	if spec.Anycast {
		flags |= flowFlagAnycast
	}
	if spec.Ordered {
		flags |= flowFlagOrdered
	}
	if spec.Flood {
		flags |= flowFlagFlood
	}
	msg[11] = flags
	msg[12] = byte(spec.LinkProto)
	msg[13] = byte(spec.DisjointK)
	msg[14] = byte(spec.Dissem)
	binary.BigEndian.PutUint32(msg[15:], uint32(spec.Deadline/time.Microsecond))
	msg[19] = spec.Priority
	if err := c.w.put(msg, nil); err != nil {
		return nil, err
	}
	return &RemoteFlow{c: c, id: id}, nil
}

// sendHeaderLen is kind(1) flow(2), the msgSend fields ahead of the
// payload.
const sendHeaderLen = 3

// Send queues one message on the flow, encoded into the connection's
// egress buffer, and returns; the caller may reuse the payload at once.
// It waits while clientSendBound bytes are queued. A write error is
// sticky: the next Send, OpenFlow, Join or Leave returns it, and so does
// Close. A payload no overlay packet can carry is refused here with an
// error satisfying errors.Is(err, wire.ErrTooLarge).
func (f *RemoteFlow) Send(payload []byte) error {
	if len(payload) > wire.MaxPayload {
		return fmt.Errorf("transport: payload %d bytes exceeds %d: %w", len(payload), wire.MaxPayload, wire.ErrTooLarge)
	}
	hdr := [sendHeaderLen]byte{msgSend, byte(f.id >> 8), byte(f.id)}
	return f.c.w.put(hdr[:], payload)
}

func (c *Client) readLoop() {
	defer close(c.done)
	fr := newFrameReader(c.conn)
	var arena wire.Arena // delivered payloads, each the application's
	first := true
	for {
		msg, err := fr.next()
		if err != nil {
			if first {
				close(c.connected)
			}
			return
		}
		if len(msg) == 0 {
			continue
		}
		switch msg[0] {
		case msgOK:
			if first && len(msg) >= 3 {
				first = false
				c.connected <- wire.Port(binary.BigEndian.Uint16(msg[1:]))
			}
		case msgError:
			c.mu.Lock()
			fn := c.onErr
			c.mu.Unlock()
			if fn != nil {
				fn(fmt.Errorf("daemon: %s", msg[1:]))
			}
			if first {
				first = false
				close(c.connected)
				return
			}
		case msgDeliver:
			if len(msg) < deliverHeaderLen {
				continue
			}
			d := session.Delivery{
				From:          wire.NodeID(binary.BigEndian.Uint16(msg[1:])),
				SrcPort:       wire.Port(binary.BigEndian.Uint16(msg[3:])),
				Seq:           binary.BigEndian.Uint32(msg[5:]),
				Group:         wire.GroupID(binary.BigEndian.Uint32(msg[9:])),
				Latency:       time.Duration(binary.BigEndian.Uint64(msg[13:])),
				Retransmitted: msg[21] == 1,
				Payload:       arena.Copy(msg[deliverHeaderLen:]),
			}
			if c.deliver != nil {
				c.deliver(d)
			}
		}
	}
}
