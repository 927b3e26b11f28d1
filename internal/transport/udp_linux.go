//go:build linux && (amd64 || arm64) && !sonet_portable

// The Linux batch data plane: recvmmsg drains up to wire.ReadBatch
// datagrams per readiness wakeup and sendmmsg flushes a whole coalescing
// ring in one kernel crossing. Both integrate with the runtime netpoller
// through syscall.RawConn — the raw calls are non-blocking and the
// callback contract parks the goroutine until the socket is ready, so
// batching never busy-waits and never blocks an OS thread.
//
// Build with -tags sonet_portable to compile this file out and exercise
// the portable per-datagram path on Linux (the transport test suite runs
// under both).

package transport

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"syscall"
	"unsafe"

	"sonet/internal/wire"
)

// Plane identifies the compiled data plane for diagnostics and the
// EXP-WIRE report.
const Plane = "linux-mmsg"

// Socket options the syscall package does not name on Linux.
const (
	soReusePort           = 0xf // SO_REUSEPORT
	soAttachReuseportCBPF = 51  // SO_ATTACH_REUSEPORT_CBPF
)

// skfNetOff is classic BPF's SKF_NET_OFF as the kernel sees it: loads at
// k >= this magic offset read relative to the network (IP) header even
// though the reuseport program's data pointer starts at the UDP payload.
const skfNetOff = 0xfff00000

// reuseportSteerProg builds the classic-BPF program attached to the
// shard socket group: return the datagram's UDP source port mod n, which
// reuseport interprets as the index of the socket (= shard) to deliver
// to. A remote endpoint keeps one source port for the life of its
// socket, so steering is per-flow stable AND deterministic — unlike the
// kernel's seeded 4-tuple hash, the shard of a flow is predictable from
// its port, which the scaling benchmarks and the steering tests rely on.
// The program handles IPv4 (honoring IHL) and IPv6 (fixed 40-byte
// header; datagrams with extension headers fall back to whatever port
// bytes sit at offset 40 — mis-steering only costs balance, never
// correctness, because a given flow's datagrams still all read the same
// bytes).
func reuseportSteerProg(n int) []syscall.SockFilter {
	// Opcodes: BPF_LD=0x00 BPF_ALU=0x04 BPF_JMP=0x05 BPF_RET=0x06
	// BPF_MISC=0x07 | size W=0x00 H=0x08 B=0x10 | mode ABS=0x20 IND=0x40
	// | BPF_AND=0x50 BPF_LSH=0x60 BPF_MOD=0x90 BPF_JEQ=0x10 BPF_TAX=0x00
	// | RET+A=0x10.
	k := uint32(n)
	return []syscall.SockFilter{
		{Code: 0x30, K: skfNetOff},          // ldb [net+0]       IP version/IHL
		{Code: 0x54, K: 0xf0},               // and #0xf0
		{Code: 0x15, Jt: 0, Jf: 7, K: 0x40}, // jeq #0x40 ? v4 : v6
		{Code: 0x30, K: skfNetOff},          // ldb [net+0]
		{Code: 0x54, K: 0x0f},               // and #0x0f         IHL in words
		{Code: 0x64, K: 2},                  // lsh #2            IHL in bytes
		{Code: 0x07},                        // tax
		{Code: 0x48, K: skfNetOff},          // ldh [x + net+0]   UDP source port
		{Code: 0x94, K: k},                  // mod #n
		{Code: 0x16},                        // ret A
		{Code: 0x28, K: skfNetOff + 40},     // v6: ldh [net+40]  UDP source port
		{Code: 0x94, K: k},                  // mod #n
		{Code: 0x16},                        // ret A
	}
}

// openShardConns binds the shard sockets. One shard binds a plain socket
// (bit-identical to the pre-shard plane). More than one binds an
// SO_REUSEPORT group — every socket on the same address and port — and
// attaches the steering program to the group; if the kernel refuses the
// program (old kernel, seccomp), the sockets still work under the
// kernel's own per-4-tuple hash and steered reports false.
func openShardConns(bind string, n int) ([]*net.UDPConn, bool, error) {
	if n == 1 {
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
	lc := net.ListenConfig{Control: func(network, address string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}); err != nil {
			return err
		}
		return serr
	}}
	conns := make([]*net.UDPConn, 0, n)
	fail := func(err error) ([]*net.UDPConn, bool, error) {
		for _, c := range conns {
			_ = c.Close()
		}
		return nil, false, err
	}
	target := bind
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", target)
		if err != nil {
			return fail(fmt.Errorf("transport: listen shard %d of %d on %q: %w", i, n, target, err))
		}
		conns = append(conns, pc.(*net.UDPConn))
		setShardSockBufs(conns[i])
		if i == 0 {
			// An ephemeral bind resolved to a concrete port; the remaining
			// group members must join it, not pick their own.
			target = conns[0].LocalAddr().String()
		}
	}
	steered := attachReuseportSteering(conns[0], n) == nil
	return conns, steered, nil
}

// attachReuseportSteering attaches the steering program to the group
// through any member socket.
func attachReuseportSteering(conn *net.UDPConn, n int) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	prog := reuseportSteerProg(n)
	fprog := syscall.SockFprog{Len: uint16(len(prog)), Filter: &prog[0]}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		// The syscall package has no SetsockoptSockFprog; raw setsockopt
		// with the fprog struct is the same call the stdlib would make.
		_, _, errno := syscall.Syscall6(syscall.SYS_SETSOCKOPT, fd,
			syscall.SOL_SOCKET, soAttachReuseportCBPF,
			uintptr(unsafe.Pointer(&fprog)), unsafe.Sizeof(fprog), 0)
		if errno != 0 {
			serr = errno
		}
	}); err != nil {
		return err
	}
	return serr
}

// mmsghdr mirrors struct mmsghdr: one msghdr plus the kernel-filled
// datagram length. Trailing padding matches C struct layout on every
// linux arch (the compiler rounds the struct to msghdr's alignment).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// zeroByte anchors the iovec of an empty datagram (an iov_base may not be
// nil alongside a non-empty msg control-free header on some kernels).
var zeroByte byte

// batchReader drains the socket with recvmmsg into a pooled slab.
type batchReader struct {
	rc   syscall.RawConn
	slab *wire.Slab
	hdrs []mmsghdr
	iovs []syscall.Iovec
	// names is the per-slot sockaddr storage; RawSockaddrInet6 is large
	// enough for both address families.
	names []syscall.RawSockaddrInet6

	// addrs and lens describe the datagrams of the last read.
	addrs []netip.AddrPort
	lens  []int

	// recv is the recvmmsg method bound once for rc.Read, which reports
	// through n and operr: a closure over locals would put itself and both
	// results on the heap at every wakeup.
	recv  func(fd uintptr) bool
	n     int
	operr error
}

func newBatchReader(conn *net.UDPConn) (*batchReader, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	k := wire.ReadBatch
	br := &batchReader{
		rc:    rc,
		slab:  wire.DefaultSlabs.Get(),
		hdrs:  make([]mmsghdr, k),
		iovs:  make([]syscall.Iovec, k),
		names: make([]syscall.RawSockaddrInet6, k),
		addrs: make([]netip.AddrPort, k),
		lens:  make([]int, k),
	}
	br.recv = br.recvmmsg
	for i := 0; i < k; i++ {
		seg := br.slab.Segment(i)
		br.iovs[i].Base = &seg[0]
		br.iovs[i].SetLen(len(seg))
		br.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&br.names[i]))
		br.hdrs[i].hdr.Iov = &br.iovs[i]
		br.hdrs[i].hdr.Iovlen = 1
	}
	return br, nil
}

// segment returns the slab landing area of datagram i from the last read.
func (br *batchReader) segment(i int) []byte { return br.slab.Segment(i) }

// release returns the slab to the shared pool.
func (br *batchReader) release() { wire.DefaultSlabs.Put(br.slab) }

// read blocks until the socket is readable, then drains up to
// wire.ReadBatch datagrams in one recvmmsg call. It returns the number of
// datagrams received; addrs and lens describe them. A non-nil error means
// the socket is closed.
func (br *batchReader) read() (int, error) {
	br.n, br.operr = 0, nil
	if err := br.rc.Read(br.recv); err != nil {
		return 0, err
	}
	if br.operr != nil {
		return 0, br.operr
	}
	for i := 0; i < br.n; i++ {
		br.lens[i] = int(br.hdrs[i].n)
		br.addrs[i] = rawToAddrPort(&br.names[i])
	}
	return br.n, nil
}

// recvmmsg is the rc.Read callback: false parks until the socket is
// readable, true ends the read with n or operr set.
func (br *batchReader) recvmmsg(fd uintptr) bool {
	for i := range br.hdrs {
		br.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		br.hdrs[i].n = 0
	}
	for {
		r1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
			uintptr(unsafe.Pointer(&br.hdrs[0])), uintptr(len(br.hdrs)),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case 0:
			br.n = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			br.operr = errno
			return true
		}
	}
}

// batchWriter flushes coalesced frames with sendmmsg.
type batchWriter struct {
	rc    syscall.RawConn
	v6    bool
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet6

	// xmit is the sendmmsg method bound once for rc.Write, which takes the
	// batch size from k and reports through n and operr (see
	// batchReader.recv).
	xmit  func(fd uintptr) bool
	k, n  int
	operr syscall.Errno
}

func newBatchWriter(conn *net.UDPConn) (*batchWriter, error) {
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, err
	}
	bw := &batchWriter{
		rc:    rc,
		hdrs:  make([]mmsghdr, wire.ReadBatch),
		iovs:  make([]syscall.Iovec, wire.ReadBatch),
		names: make([]syscall.RawSockaddrInet6, wire.ReadBatch),
	}
	bw.xmit = bw.sendmmsg
	// The sockaddr family must match the socket's, not the destination's:
	// an AF_INET6 socket wants v4 destinations mapped, an AF_INET socket
	// cannot reach v6 at all.
	cerr := rc.Control(func(fd uintptr) {
		sa, err := syscall.Getsockname(int(fd))
		if err == nil {
			_, bw.v6 = sa.(*syscall.SockaddrInet6)
		}
	})
	if cerr != nil {
		return nil, cerr
	}
	for i := range bw.hdrs {
		bw.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&bw.names[i]))
		bw.hdrs[i].hdr.Iov = &bw.iovs[i]
		bw.hdrs[i].hdr.Iovlen = 1
	}
	return bw, nil
}

// send hands frames to the kernel in sendmmsg batches, preserving order.
// Undeliverable frames (family mismatch, per-datagram socket errors) are
// dropped, like IP would. It returns datagrams sent, datagrams dropped,
// and payload bytes sent.
func (bw *batchWriter) send(frames []outFrame) (sent, dropped int, bytes uint64) {
	off := 0
	for off < len(frames) {
		// Build the next batch.
		k := 0
		for k < len(bw.hdrs) && off+k < len(frames) {
			f := frames[off+k]
			nl, ok := bw.encodeAddr(k, f.to)
			if !ok {
				if k == 0 {
					off++
					dropped++
					continue
				}
				break // flush what is built, then retry the bad one alone
			}
			bw.hdrs[k].hdr.Namelen = nl
			if len(f.buf.B) == 0 {
				bw.iovs[k].Base = &zeroByte
				bw.iovs[k].SetLen(0)
			} else {
				bw.iovs[k].Base = &f.buf.B[0]
				bw.iovs[k].SetLen(len(f.buf.B))
			}
			k++
		}
		if k == 0 {
			continue
		}
		n, errno := bw.sendBatch(k)
		if n > 0 {
			for i := 0; i < n; i++ {
				bytes += uint64(len(frames[off+i].buf.B))
			}
			sent += n
			off += n
			continue
		}
		if errno != 0 {
			// The head datagram failed (e.g. a routing error); drop it and
			// make progress on the rest.
			off++
			dropped++
			continue
		}
		// Closed connection: everything left is dropped.
		dropped += len(frames) - off
		return sent, dropped, bytes
	}
	return sent, dropped, bytes
}

// sendBatch performs one sendmmsg over the first k prepared headers,
// waiting for writability as needed. It returns datagrams accepted and
// the errno that stopped the batch (0 with n==0 means the socket closed).
func (bw *batchWriter) sendBatch(k int) (int, syscall.Errno) {
	bw.k, bw.n, bw.operr = k, 0, 0
	if err := bw.rc.Write(bw.xmit); err != nil {
		return 0, 0
	}
	return bw.n, bw.operr
}

// sendmmsg is the rc.Write callback: false parks until the socket is
// writable, true ends the write with n or operr set.
func (bw *batchWriter) sendmmsg(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&bw.hdrs[0])), uintptr(bw.k),
			uintptr(syscall.MSG_DONTWAIT), 0, 0)
		switch errno {
		case 0:
			bw.n = int(r1)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		default:
			bw.operr = errno
			return true
		}
	}
}

// encodeAddr writes ap into sockaddr slot i using the socket's family,
// reporting false when the destination is unrepresentable.
func (bw *batchWriter) encodeAddr(i int, ap netip.AddrPort) (uint32, bool) {
	addr := ap.Addr()
	if bw.v6 {
		rsa := &bw.names[i]
		*rsa = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		// As16 yields the v4-mapped form for IPv4 addresses, which is what
		// a dual-stack socket expects.
		rsa.Addr = addr.As16()
		putSockaddrPort((*[2]byte)(unsafe.Pointer(&rsa.Port)), ap.Port())
		return syscall.SizeofSockaddrInet6, true
	}
	addr = addr.Unmap()
	if !addr.Is4() {
		return 0, false
	}
	r4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(&bw.names[i]))
	*r4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
	r4.Addr = addr.As4()
	putSockaddrPort((*[2]byte)(unsafe.Pointer(&r4.Port)), ap.Port())
	return syscall.SizeofSockaddrInet4, true
}

// rawToAddrPort decodes a kernel-filled sockaddr into a canonical (4-in-6
// unmapped) AddrPort for the lock-free sender lookup.
func rawToAddrPort(rsa *syscall.RawSockaddrInet6) netip.AddrPort {
	switch rsa.Family {
	case syscall.AF_INET:
		r4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(rsa))
		return netip.AddrPortFrom(netip.AddrFrom4(r4.Addr),
			sockaddrPort((*[2]byte)(unsafe.Pointer(&r4.Port))))
	case syscall.AF_INET6:
		return netip.AddrPortFrom(netip.AddrFrom16(rsa.Addr).Unmap(),
			sockaddrPort((*[2]byte)(unsafe.Pointer(&rsa.Port))))
	}
	return netip.AddrPort{}
}

// sockaddrPort reads a network-byte-order sockaddr port.
func sockaddrPort(p *[2]byte) uint16 { return uint16(p[0])<<8 | uint16(p[1]) }

// putSockaddrPort writes a network-byte-order sockaddr port.
func putSockaddrPort(p *[2]byte, port uint16) {
	p[0] = byte(port >> 8)
	p[1] = byte(port)
}
