//go:build linux && (amd64 || arm64) && !sonet_portable

// The Linux batch data plane: recvmmsg drains up to wire.ReadBatch
// messages per readiness wakeup and sendmmsg flushes a whole coalescing
// ring in one kernel crossing. Both integrate with the runtime netpoller
// through syscall.RawConn — the raw calls are non-blocking and the
// callback contract parks the goroutine until the socket is ready, so
// batching never busy-waits and never blocks an OS thread.
//
// Where the kernel offers them, a message is a run of datagrams rather
// than one: the writer groups each flush by peer and sends each run of
// equal-sized frames to one peer as one UDP_SEGMENT message, and the
// reader asks for UDP_GRO, splitting each coalesced message back into its
// datagrams before anyone sees it. Every datagram leaves and arrives
// byte-for-byte as a plain send would.
//
// Build with -tags sonet_portable to compile this file out and exercise
// the portable per-datagram path on Linux (the transport test suite runs
// under both).

package transport

import (
	"encoding/binary"
	"net"
	"net/netip"
	"slices"
	"syscall"
	"unsafe"

	"sonet/internal/wire"
)

// Plane identifies the compiled data plane for diagnostics and the
// EXP-WIRE report.
const Plane = "linux-mmsg"

// Socket options the syscall package does not name on Linux.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: send a message as datagrams of this size
	udpGRO     = 104 // UDP_GRO: receive coalesced datagrams and their size
)

// A segmented message carries at most maxSegments datagrams (the kernel's
// UDP_MAX_SEGMENTS, which newer kernels raised to 128) and maxSegmentBytes
// of payload: the largest UDP payload one IPv6 packet holds
// (65535 − 40 − 8), which bounds an IPv4 socket's too. maxBatchDatagrams
// is then the most datagrams a batch of wire.ReadBatch messages carries:
// it bounds the writer's iovecs and the reader's entry table, so only a
// peer sending longer runs than this writer ever leaves the reader a
// remainder for its next read.
const (
	maxSegments       = 64
	maxSegmentBytes   = 65487
	maxBatchDatagrams = wire.ReadBatch * maxSegments
)

// udpCmsg is one SOL_UDP control message with room for its segment size:
// a uint16 in a sent UDP_SEGMENT message, an int in a received UDP_GRO
// one. Its size is CMSG_SPACE of either.
type udpCmsg struct {
	hdr  syscall.Cmsghdr
	data [8]byte
}

// udpCmsgSpace is the control buffer length of one udpCmsg.
const udpCmsgSpace = int(unsafe.Sizeof(udpCmsg{}))

// setSegmentSize makes c the UDP_SEGMENT message for datagrams of size
// bytes.
func (c *udpCmsg) setSegmentSize(size int) {
	c.hdr.Level, c.hdr.Type = solUDP, udpSegment
	c.hdr.SetLen(syscall.CmsgLen(2))
	binary.NativeEndian.PutUint16(c.data[:], uint16(size))
}

// groSize returns the segment size a received UDP_GRO message reports, or
// 0 when the kernel wrote none (controllen bytes of control data): the
// message is then one datagram. UDP_GRO is the only control message the
// reader's sockets enable, so it is always the first.
func (c *udpCmsg) groSize(controllen uint64) int {
	if controllen < uint64(syscall.CmsgLen(4)) || c.hdr.Level != solUDP || c.hdr.Type != udpGRO {
		return 0
	}
	return int(int32(binary.NativeEndian.Uint32(c.data[:])))
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

// batchReader drains the socket with recvmmsg into its arena, one message
// per segment, and splits coalesced messages into their datagrams.
type batchReader struct {
	rc syscall.RawConn
	// arena is the reader's landing area, allocated once and owned for the
	// reader's life: wire.ReadBatch segments of wire.MaxDatagram bytes whose
	// addresses stay fixed across recvmmsg calls (seg).
	arena []byte
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	// names is the per-slot sockaddr storage; RawSockaddrInet6 is large
	// enough for both address families.
	names []syscall.RawSockaddrInet6
	// cmsgs receives each message's UDP_GRO segment size; gro reports that
	// the socket accepted UDP_GRO, without which no message is coalesced.
	cmsgs []udpCmsg
	gro   bool

	// addrs, lens and datas describe the datagrams of the last read, one
	// entry per datagram; datas[i] starts at datagram i's first byte.
	// coalesced counts the entries that arrived inside a multi-datagram
	// message.
	addrs     []netip.AddrPort
	lens      []int
	datas     [][]byte
	coalesced int

	// msgs is the message count of the last recvmmsg; next and off are the
	// first message and byte not yet split into entries. The entry table
	// starts at one entry per message and doubles when coalesced traffic
	// needs it, up to maxBatchDatagrams; a read with more datagrams than that
	// hands out the rest on the next read, which makes no syscall.
	msgs, next, off int

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
		arena: make([]byte, k*wire.MaxDatagram),
		hdrs:  make([]mmsghdr, k),
		iovs:  make([]syscall.Iovec, k),
		names: make([]syscall.RawSockaddrInet6, k),
		cmsgs: make([]udpCmsg, k),
		addrs: make([]netip.AddrPort, k),
		lens:  make([]int, k),
		datas: make([][]byte, k),
	}
	br.recv = br.recvmmsg
	if err := rc.Control(func(fd uintptr) {
		br.gro = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1) == nil
	}); err != nil {
		return nil, err
	}
	for i := 0; i < k; i++ {
		seg := br.seg(i)
		br.iovs[i].Base = &seg[0]
		br.iovs[i].SetLen(len(seg))
		br.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&br.names[i]))
		br.hdrs[i].hdr.Iov = &br.iovs[i]
		br.hdrs[i].hdr.Iovlen = 1
		if br.gro {
			br.hdrs[i].hdr.Control = (*byte)(unsafe.Pointer(&br.cmsgs[i]))
		}
	}
	return br, nil
}

// seg returns arena segment i, capacity-clipped so an append past it
// cannot bleed into its neighbour.
func (br *batchReader) seg(i int) []byte {
	off := i * wire.MaxDatagram
	return br.arena[off : off+wire.MaxDatagram : off+wire.MaxDatagram]
}

// segment returns the arena bytes from the start of datagram i of the last
// read.
func (br *batchReader) segment(i int) []byte { return br.datas[i] }

// read blocks until the socket is readable, then drains up to
// wire.ReadBatch messages in one recvmmsg call. It returns the number of
// datagrams received; addrs, lens and segment describe them. A non-nil
// error means the socket is closed.
func (br *batchReader) read() (int, error) {
	if br.next == br.msgs {
		br.n, br.operr = 0, nil
		if err := br.rc.Read(br.recv); err != nil {
			return 0, err
		}
		if br.operr != nil {
			return 0, br.operr
		}
		br.msgs, br.next, br.off = br.n, 0, 0
	}
	return br.split(), nil
}

// split turns the received messages into datagram entries, cutting a
// coalesced message at its UDP_GRO segment size (the last datagram may be
// shorter), until the messages or the entry table run out.
func (br *batchReader) split() int {
	k := 0
	br.coalesced = 0
	for ; br.next < br.msgs; br.next, br.off = br.next+1, 0 {
		i := br.next
		n := int(br.hdrs[i].n)
		size := n
		if g := br.cmsgs[i].groSize(br.hdrs[i].hdr.Controllen); g > 0 && g < n {
			size = g
		}
		addr := rawToAddrPort(&br.names[i])
		seg := br.seg(i)
		for {
			if k == len(br.lens) {
				if k == maxBatchDatagrams {
					return k
				}
				br.grow()
			}
			ln := min(size, n-br.off)
			br.addrs[k], br.lens[k], br.datas[k] = addr, ln, seg[br.off:]
			if size < n {
				br.coalesced++
			}
			k++
			if br.off += ln; br.off >= n {
				break
			}
		}
	}
	return k
}

// grow doubles the entry table, keeping the entries already filled.
func (br *batchReader) grow() {
	n := min(2*len(br.lens), maxBatchDatagrams)
	br.addrs = append(br.addrs, make([]netip.AddrPort, n-len(br.addrs))...)
	br.lens = append(br.lens, make([]int, n-len(br.lens))...)
	br.datas = append(br.datas, make([][]byte, n-len(br.datas))...)
}

// recvmmsg is the rc.Read callback: false parks until the socket is
// readable, true ends the read with n or operr set.
func (br *batchReader) recvmmsg(fd uintptr) bool {
	for i := range br.hdrs {
		br.hdrs[i].hdr.Namelen = syscall.SizeofSockaddrInet6
		if br.gro {
			br.hdrs[i].hdr.SetControllen(udpCmsgSpace)
		}
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

// batchWriter flushes coalesced frames with sendmmsg, grouped by peer
// while it segments, one message per run of frames (runLen).
type batchWriter struct {
	rc syscall.RawConn
	v6 bool
	// gso reports that the socket takes UDP_SEGMENT; the first segmented
	// message the kernel refuses clears it for good.
	gso   bool
	hdrs  []mmsghdr
	names []syscall.RawSockaddrInet6
	cmsgs []udpCmsg
	// iovs holds one iovec per frame, so the kernel gathers a run straight
	// from the frames' buffers; it starts at one per message and grows
	// with the flushes, up to what a full batch of full runs takes. runs[i]
	// is the frame count of message i.
	iovs []syscall.Iovec
	runs []int
	// peers and grouped are group's scratch: a flush's destinations in
	// order of first appearance, and the flush reordered by peer, cleared
	// before send returns.
	peers   [maxGroupPeers]netip.AddrPort
	grouped []outFrame

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
	k := wire.ReadBatch
	bw := &batchWriter{
		rc:    rc,
		hdrs:  make([]mmsghdr, k),
		names: make([]syscall.RawSockaddrInet6, k),
		cmsgs: make([]udpCmsg, k),
		iovs:  make([]syscall.Iovec, k),
		runs:  make([]int, k),
	}
	bw.xmit = bw.sendmmsg
	// The sockaddr family must match the socket's, not the destination's:
	// an AF_INET6 socket wants v4 destinations mapped, an AF_INET socket
	// cannot reach v6 at all. A kernel without UDP_SEGMENT does not know
	// the option.
	cerr := rc.Control(func(fd uintptr) {
		sa, err := syscall.Getsockname(int(fd))
		if err == nil {
			_, bw.v6 = sa.(*syscall.SockaddrInet6)
		}
		_, err = syscall.GetsockoptInt(int(fd), solUDP, udpSegment)
		bw.gso = err == nil
	})
	if cerr != nil {
		return nil, cerr
	}
	for i := range bw.hdrs {
		bw.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&bw.names[i]))
	}
	return bw, nil
}

// runLen returns how many frames from the head of frames leave as one
// message: consecutive frames to one destination, all as long as the
// first except that one shorter frame may close the run, at most
// maxSegments of them and maxSegmentBytes in all. A zero-length frame
// always leaves alone (a segment has at least one byte).
func runLen(frames []outFrame) int {
	size := len(frames[0].buf.B)
	if size == 0 {
		return 1
	}
	n, total := 1, size
	for n < len(frames) && n < maxSegments {
		f := frames[n]
		ln := len(f.buf.B)
		if f.to != frames[0].to || ln == 0 || ln > size || total+ln > maxSegmentBytes {
			break
		}
		n++
		total += ln
		if ln < size {
			break
		}
	}
	return n
}

// refusesSegment reports whether errno is the kernel refusing a
// UDP_SEGMENT message it would have sent as plain datagrams: no checksum
// offload on the route (EIO), checksums off on the socket or a segment
// above the path MTU (EINVAL), a run too long for this kernel (EMSGSIZE).
func refusesSegment(errno syscall.Errno) bool {
	return errno == syscall.EINVAL || errno == syscall.EIO || errno == syscall.EMSGSIZE
}

// maxGroupPeers bounds the destinations group reorders one flush over, so
// its scans stay short on a hub; a flush to more peers than this leaves in
// its own order.
const maxGroupPeers = 16

// group returns frames reordered stably by destination, each peer's frames
// in their order and the peers in order of first appearance, so runLen
// sees every peer's frames together: a relay's turn alternates data to the
// next hop with acks to the previous one. It returns nil for a flush that
// is already grouped or goes to more than maxGroupPeers peers: that flush
// leaves as it is.
func (bw *batchWriter) group(frames []outFrame) []outFrame {
	np, p, sorted := 0, 0, true
	for _, f := range frames {
		if np == 0 || f.to != bw.peers[p] {
			if p = slices.Index(bw.peers[:np], f.to); p >= 0 {
				sorted = false
			} else if np == maxGroupPeers {
				return nil
			} else {
				p, bw.peers[np] = np, f.to
				np++
			}
		}
	}
	if sorted {
		return nil
	}
	out := bw.grouped[:0]
	for _, to := range bw.peers[:np] {
		for _, f := range frames {
			if f.to == to {
				out = append(out, f)
			}
		}
	}
	bw.grouped = out
	return out
}

// send hands frames to the kernel in sendmmsg batches, grouped by peer
// (group) while the socket segments and in their order otherwise.
// Undeliverable frames (family mismatch, per-message socket errors) are
// dropped, like IP would; a segmented message the kernel refuses is sent
// again as plain datagrams, and the writer stops segmenting. It returns
// datagrams sent, datagrams dropped, datagrams sent inside segmented
// messages, and payload bytes sent.
func (bw *batchWriter) send(frames []outFrame) (sent, dropped, segmented int, bytes uint64) {
	if bw.gso && len(frames) > 2 {
		if g := bw.group(frames); g != nil {
			frames = g
			defer clear(g) // the scratch keeps no buffer past the flush
		}
	}
	// Grown here, before any header points into it.
	if need := min(len(frames), maxBatchDatagrams); need > len(bw.iovs) {
		bw.iovs = make([]syscall.Iovec, min(max(need, 2*len(bw.iovs)), maxBatchDatagrams))
	}
	off := 0
	for off < len(frames) {
		// Build the next batch: one message per run, one iovec per frame.
		k, iov, next := 0, 0, off
		for k < len(bw.hdrs) && next < len(frames) {
			nl, ok := bw.encodeAddr(k, frames[next].to)
			if !ok {
				if k == 0 {
					off++
					next++
					dropped++
					continue
				}
				break // flush what is built, then retry the bad one alone
			}
			run := 1
			if bw.gso {
				run = runLen(frames[next:])
			}
			h := &bw.hdrs[k].hdr
			h.Namelen = nl
			h.Iov = &bw.iovs[iov]
			h.Iovlen = uint64(run)
			for _, f := range frames[next : next+run] {
				if len(f.buf.B) == 0 {
					bw.iovs[iov].Base = &zeroByte
				} else {
					bw.iovs[iov].Base = &f.buf.B[0]
				}
				bw.iovs[iov].SetLen(len(f.buf.B))
				iov++
			}
			if run > 1 {
				bw.cmsgs[k].setSegmentSize(len(frames[next].buf.B))
				h.Control = (*byte)(unsafe.Pointer(&bw.cmsgs[k]))
				h.SetControllen(udpCmsgSpace)
			} else {
				h.Control = nil
				h.SetControllen(0)
			}
			bw.runs[k] = run
			next += run
			k++
		}
		if k == 0 {
			continue
		}
		n, errno := bw.sendBatch(k)
		if n > 0 {
			for _, run := range bw.runs[:n] {
				for _, f := range frames[off : off+run] {
					bytes += uint64(len(f.buf.B))
				}
				if run > 1 {
					segmented += run
				}
				sent += run
				off += run
			}
			continue
		}
		if errno != 0 {
			if bw.runs[0] > 1 && refusesSegment(errno) {
				// Rebuild from the same frame, now one message each.
				bw.gso = false
				continue
			}
			// The head message failed (e.g. a routing error); drop its
			// frames, all bound for the one destination, and make progress
			// on the rest.
			off += bw.runs[0]
			dropped += bw.runs[0]
			continue
		}
		// Closed connection: everything left is dropped.
		dropped += len(frames) - off
		return sent, dropped, segmented, bytes
	}
	return sent, dropped, segmented, bytes
}

// sendBatch performs one sendmmsg over the first k prepared headers,
// waiting for writability as needed. It returns messages accepted and
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
