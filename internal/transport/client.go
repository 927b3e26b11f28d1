package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sonet/internal/session"
	"sonet/internal/wire"
)

// Client speaks the framed TCP session protocol to an overlay daemon —
// the remote half of the client–daemon hierarchy (§II-B). It is safe for
// concurrent use.
type Client struct {
	conn net.Conn

	mu       sync.Mutex
	nextFlow uint16
	port     wire.Port
	onErr    func(error)

	// wmu serializes writers and guards wbuf, the connection-owned buffer
	// (frameBufSize: any legal message fits) every request is encoded into
	// and written from with one Write. Close never takes it: a writer
	// blocked on a full TCP window holds it until the socket closes under
	// it.
	wmu  sync.Mutex
	wbuf []byte

	deliver   func(session.Delivery)
	connected chan wire.Port
	closed    atomic.Bool
	done      chan struct{}
}

// errClientClosed is returned by every request on a closed client.
var errClientClosed = errors.New("transport: client closed")

// Dial connects to a daemon's client listener and binds the given virtual
// port (zero for ephemeral). deliver receives incoming messages.
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
		wbuf:      make([]byte, 0, frameBufSize),
		deliver:   deliver,
		connected: make(chan wire.Port, 1),
		done:      make(chan struct{}),
	}
	go c.readLoop()
	req := make([]byte, 3)
	req[0] = msgConnect
	binary.BigEndian.PutUint16(req[1:], uint16(port))
	if err := c.write(req); err != nil {
		_ = conn.Close()
		return nil, err
	}
	select {
	case p, ok := <-c.connected:
		if !ok {
			_ = conn.Close()
			return nil, fmt.Errorf("transport: daemon refused connect")
		}
		c.mu.Lock()
		c.port = p
		c.mu.Unlock()
	case <-time.After(5 * time.Second):
		_ = conn.Close()
		return nil, fmt.Errorf("transport: connect timeout")
	}
	return c, nil
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

// Close terminates the session. It does not wait for writers: closing the
// socket fails a Send blocked on a daemon that stopped reading.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	err := c.conn.Close()
	<-c.done
	return err
}

// Join subscribes the client's node to a multicast group.
func (c *Client) Join(g wire.GroupID) error {
	msg := make([]byte, 5)
	msg[0] = msgJoin
	binary.BigEndian.PutUint32(msg[1:], uint32(g))
	return c.write(msg)
}

// Leave unsubscribes from a multicast group.
func (c *Client) Leave(g wire.GroupID) error {
	msg := make([]byte, 5)
	msg[0] = msgLeave
	binary.BigEndian.PutUint32(msg[1:], uint32(g))
	return c.write(msg)
}

// RemoteFlow is a flow opened over the client protocol.
type RemoteFlow struct {
	c  *Client
	id uint16
}

// OpenFlow opens a flow with the given service selection.
func (c *Client) OpenFlow(spec session.FlowSpec) (*RemoteFlow, error) {
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
	if err := c.write(msg); err != nil {
		return nil, err
	}
	return &RemoteFlow{c: c, id: id}, nil
}

// sendHeaderLen is kind(1) flow(2), the msgSend fields ahead of the
// payload.
const sendHeaderLen = 3

// Send transmits one message on the flow. The payload is encoded into
// the connection's buffer and written with one Write before Send returns;
// the caller may reuse it at once. A payload no overlay packet can carry
// is refused here with an error satisfying errors.Is(err, wire.ErrTooLarge).
func (f *RemoteFlow) Send(payload []byte) error {
	if len(payload) > wire.MaxPayload {
		return fmt.Errorf("transport: payload %d bytes exceeds %d: %w", len(payload), wire.MaxPayload, wire.ErrTooLarge)
	}
	c := f.c
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf := appendFrameHeader(c.wbuf[:0], sendHeaderLen+len(payload))
	buf = append(buf, msgSend, byte(f.id>>8), byte(f.id))
	return c.flush(append(buf, payload...))
}

// write sends one control message.
func (c *Client) write(msg []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	buf, err := appendFrame(c.wbuf[:0], msg)
	if err != nil {
		return err
	}
	return c.flush(buf)
}

// flush writes the frame encoded in buf (built on c.wbuf) with one Write.
// The caller holds wmu.
func (c *Client) flush(buf []byte) error {
	if c.closed.Load() {
		return errClientClosed
	}
	if _, err := c.conn.Write(buf); err != nil {
		return fmt.Errorf("transport: write frame: %w", err)
	}
	return nil
}

func (c *Client) readLoop() {
	defer close(c.done)
	fr := newFrameReader(c.conn)
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
				Payload:       append([]byte(nil), msg[deliverHeaderLen:]...),
			}
			if c.deliver != nil {
				c.deliver(d)
			}
		}
	}
}
