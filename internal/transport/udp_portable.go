//go:build !linux || sonet_portable || !(amd64 || arm64)

// The portable data plane: one datagram per kernel crossing through the
// net package, sharing the reader-owned arena and the coalescing ring with
// the Linux fast path — only the batch width differs. The
// sonet_portable build tag compiles this file in on Linux too, so the
// full transport test suite can exercise the fallback there.

package transport

import (
	"fmt"
	"net"
	"net/netip"

	"sonet/internal/wire"
)

// Plane identifies the compiled data plane for diagnostics and the
// EXP-WIRE report.
const Plane = "portable"

// openShardConns on the portable plane always binds exactly one socket,
// whatever the shard count: the single read loop becomes a dispatcher
// that steers each decoded datagram to its flow's shard by the
// deterministic flow hash (SO_REUSEPORT steering is a Linux fast-path
// feature). Shard tx rings all flush through this socket — the net
// package serializes concurrent writes safely.
func openShardConns(bind string, n int) ([]*net.UDPConn, bool, error) {
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, false, fmt.Errorf("transport: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, false, fmt.Errorf("transport: listen %q: %w", bind, err)
	}
	setShardSockBufs(conn)
	return []*net.UDPConn{conn}, false, nil
}

// batchReader reads one datagram per wakeup into its arena, one
// wire.MaxDatagram buffer allocated once and owned for the reader's life.
type batchReader struct {
	conn  *net.UDPConn
	arena []byte

	addrs []netip.AddrPort
	lens  []int
	// coalesced is always 0: a datagram read here arrived on its own.
	coalesced int
}

func newBatchReader(conn *net.UDPConn) (*batchReader, error) {
	return &batchReader{
		conn:  conn,
		arena: make([]byte, wire.MaxDatagram),
		addrs: make([]netip.AddrPort, 1),
		lens:  make([]int, 1),
	}, nil
}

// segment returns the landing area of the last read's datagram.
func (br *batchReader) segment(int) []byte { return br.arena }

// read blocks for one datagram. ReadFromUDPAddrPort keeps the path
// allocation-free: no *net.UDPAddr and no addr.String() per packet.
func (br *batchReader) read() (int, error) {
	n, ap, err := br.conn.ReadFromUDPAddrPort(br.arena)
	if err != nil {
		return 0, err
	}
	br.lens[0] = n
	br.addrs[0] = canonAddrPort(ap)
	return 1, nil
}

// batchWriter writes coalesced frames with one syscall each.
type batchWriter struct {
	conn *net.UDPConn
}

func newBatchWriter(conn *net.UDPConn) (*batchWriter, error) {
	return &batchWriter{conn: conn}, nil
}

// send hands frames to the kernel in order, one datagram per call, so
// none is ever segmented. Errors are indistinguishable from loss, like IP:
// the frame is counted dropped and the flush goes on.
func (bw *batchWriter) send(frames []outFrame) (sent, dropped, segmented int, bytes uint64) {
	for _, f := range frames {
		if _, err := bw.conn.WriteToUDPAddrPort(f.buf.B, f.to); err != nil {
			dropped++
			continue
		}
		sent++
		bytes += uint64(len(f.buf.B))
	}
	return sent, dropped, 0, bytes
}
