//go:build linux && (amd64 || arm64) && !sonet_portable

package transport

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// requireOffloads skips a test that needs UDP_SEGMENT and UDP_GRO when the
// kernel lacks either.
func requireOffloads(t *testing.T) {
	t.Helper()
	conn := listenLoopback(t)
	bw, err := newBatchWriter(conn)
	if err != nil {
		t.Fatal(err)
	}
	br, err := newBatchReader(conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bw.gso || !br.gro {
		t.Skipf("kernel offers UDP_SEGMENT %v, UDP_GRO %v", bw.gso, br.gro)
	}
}

// awaitGRO waits until u's socket coalesces on receive. The read loop
// turns UDP_GRO on when it starts, after NewUDPUnderlay has returned; a
// segmented message that arrives before that is split by the kernel,
// which is correct but not what a crossing count expects.
func awaitGRO(t *testing.T, u *UDPUnderlay) {
	t.Helper()
	rc, err := u.conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	on := func() bool {
		v := 0
		_ = rc.Control(func(fd uintptr) { v, _ = syscall.GetsockoptInt(int(fd), solUDP, udpGRO) })
		return v == 1
	}
	if !waitFor(t, 5*time.Second, on) {
		t.Fatal("read loop never turned UDP_GRO on")
	}
}

// listenLoopback binds a loopback socket with the underlay's socket
// buffers and closes it when the test ends.
func listenLoopback(t *testing.T) *net.UDPConn {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	setSockBufs(conn)
	t.Cleanup(func() { _ = conn.Close() })
	return conn
}

// payload returns size bytes that differ from every other payload of the
// test: frame number i first, then bytes from rng.
func payload(rng *rand.Rand, i, size int) []byte {
	b := make([]byte, size)
	rng.Read(b)
	for k := 0; k < 4 && k < size; k++ {
		b[k] = byte(i >> (8 * k))
	}
	return b
}

// testUnderlay binds a loopback underlay that hands frames to handler (nil:
// drops them) on exec and closes when the test ends.
func testUnderlay(t *testing.T, exec sim.Executor, handler func(wire.NodeID, []byte)) *UDPUnderlay {
	t.Helper()
	if handler == nil {
		handler = func(wire.NodeID, []byte) {}
	}
	u, err := NewUDPUnderlay("127.0.0.1:0", exec, handler)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = u.Close() })
	return u
}

// connect registers tx at rx as peer txID and rx at tx as peer rxID.
func connect(t *testing.T, tx *UDPUnderlay, txID wire.NodeID, rx *UDPUnderlay, rxID wire.NodeID) {
	t.Helper()
	if err := rx.AddPeer(txID, tx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddPeer(rxID, rx.LocalAddr()); err != nil {
		t.Fatal(err)
	}
}

// recorder keeps a copy of every delivered frame, per sender, in arrival
// order.
type recorder struct {
	mu   sync.Mutex
	got  map[wire.NodeID][][]byte
	seen int
}

func newRecorder() *recorder { return &recorder{got: map[wire.NodeID][][]byte{}} }

func (r *recorder) handle(from wire.NodeID, data []byte) {
	r.mu.Lock()
	r.got[from] = append(r.got[from], append([]byte(nil), data...))
	r.seen++
	r.mu.Unlock()
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}

func (r *recorder) from(id wire.NodeID) [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.got[id]
}

// sameFrames fails the test unless got holds want's frames byte for byte
// and in order.
func sameFrames(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: frame %d differs (%d bytes, want %d)", what, i, len(got[i]), len(want[i]))
		}
	}
}

// drain reads want datagrams from br and returns copies in arrival order,
// plus how many of them arrived coalesced.
func drain(t *testing.T, br *batchReader, want int) (got [][]byte, coalesced int) {
	t.Helper()
	for len(got) < want {
		n, err := br.read()
		if err != nil {
			t.Fatalf("after %d of %d datagrams: %v", len(got), want, err)
		}
		for i := 0; i < n; i++ {
			got = append(got, append([]byte(nil), br.segment(i)[:br.lens[i]]...))
		}
		coalesced += br.coalesced
	}
	return got, coalesced
}

// outFrames wraps payloads as frames to one destination.
func outFrames(to netip.AddrPort, payloads [][]byte) []outFrame {
	frames := make([]outFrame, len(payloads))
	for i, p := range payloads {
		frames[i] = outFrame{to: to, buf: &wire.Buf{B: p}}
	}
	return frames
}

// TestRunLen pins the rule that groups frames into one segmented message.
func TestRunLen(t *testing.T) {
	a := netip.MustParseAddrPort("127.0.0.1:7001")
	b := netip.MustParseAddrPort("127.0.0.1:7002")
	type f struct {
		to   netip.AddrPort
		size int
	}
	repeat := func(n int, to netip.AddrPort, size int) []f {
		fs := make([]f, n)
		for i := range fs {
			fs[i] = f{to, size}
		}
		return fs
	}
	cases := []struct {
		name   string
		frames []f
		want   int
	}{
		{"one frame", []f{{a, 1200}}, 1},
		{"equal frames to one peer", repeat(5, a, 1200), 5},
		{"destination changes", []f{{a, 1200}, {a, 1200}, {b, 1200}, {b, 1200}}, 2},
		{"a shorter frame closes the run", []f{{a, 1200}, {a, 1200}, {a, 800}, {a, 1200}}, 3},
		{"a shorter second frame closes a run of two", []f{{a, 1200}, {a, 800}, {a, 800}}, 2},
		{"a longer frame starts a new run", []f{{a, 800}, {a, 800}, {a, 1200}}, 2},
		{"a zero-length frame leaves alone", []f{{a, 0}, {a, 0}}, 1},
		{"a zero-length frame does not close a run", []f{{a, 1200}, {a, 0}}, 1},
		{"the segment cap", repeat(maxSegments+6, a, 100), maxSegments},
		{"the byte cap", repeat(60, a, 1200), maxSegmentBytes / 1200},
		{"a frame past the byte cap leaves alone", []f{{a, 40000}, {a, 40000}}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames := make([]outFrame, len(tc.frames))
			for i, fr := range tc.frames {
				frames[i] = outFrame{to: fr.to, buf: &wire.Buf{B: make([]byte, fr.size)}}
			}
			if got := runLen(frames); got != tc.want {
				t.Fatalf("runLen = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestGroupByPeer pins the order a segmenting writer sends a flush in:
// stably by destination, peers in order of first appearance; a flush that
// is already grouped, or goes to more than maxGroupPeers peers, is sent as
// it came, without a copy.
func TestGroupByPeer(t *testing.T) {
	addr := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(7000+i))
	}
	hub := make([]int, 2*(maxGroupPeers+1))
	for i := range hub {
		hub[i] = i % (maxGroupPeers + 1)
	}
	cases := []struct {
		name  string
		peers []int // destination of each frame
		want  []int // frame numbers in the order sent; nil: as they came
	}{
		{"one peer", []int{1, 1, 1}, nil},
		{"already grouped", []int{1, 1, 2, 2, 3}, nil},
		{"a relay's turn", []int{3, 1, 3, 1, 3, 1}, []int{0, 2, 4, 1, 3, 5}},
		{"peers in order of first appearance", []int{2, 1, 3, 1, 2, 3}, []int{0, 4, 1, 3, 2, 5}},
		{"a peer that comes back", []int{1, 2, 2, 1}, []int{0, 3, 1, 2}},
		{"more peers than maxGroupPeers", hub, nil},
	}
	bw := &batchWriter{}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frames := make([]outFrame, len(tc.peers))
			for i, p := range tc.peers {
				frames[i] = outFrame{to: addr(p), buf: &wire.Buf{B: []byte{byte(i)}}}
			}
			got := bw.group(frames)
			if (got == nil) != (tc.want == nil) {
				t.Fatalf("reordered %v, want %v", got != nil, tc.want != nil)
			}
			for i, w := range tc.want {
				if got[i] != frames[w] {
					t.Fatalf("position %d holds frame %d, want frame %d", i, got[i].buf.B[0], w)
				}
			}
		})
	}
}

// TestSegmentedFlushIsOneCrossingEachWay counts the kernel crossings of
// one flush of equal frames to one peer: one segmented message out, one
// read in, every datagram byte-identical and in order.
func TestSegmentedFlushIsOneCrossingEachWay(t *testing.T) {
	requireOffloads(t)
	rec := newRecorder()
	rx := testUnderlay(t, sim.Inline{}, rec.handle)
	exec := &captureExec{}
	tx := testUnderlay(t, exec, nil)
	connect(t, tx, 2, rx, 1)
	awaitGRO(t, rx)
	rng := rand.New(rand.NewSource(1))
	var want [][]byte
	for i := 0; i < 16; i++ {
		want = append(want, payload(rng, i, 1200))
		tx.Send(1, 0, want[i])
	}
	exec.runAll()
	if !waitFor(t, 5*time.Second, func() bool { return rec.count() == len(want) }) {
		t.Fatalf("delivered %d of %d", rec.count(), len(want))
	}
	sameFrames(t, "delivered", rec.from(2), want)
	if st := tx.Stats(); st.SendBatches != 1 || st.SendPackets != 16 || st.SendSegmented != 16 || st.SendDropped != 0 {
		t.Fatalf("sender: %+v, want 1 flush of 16 datagrams, all segmented", st)
	}
	if st := rx.Stats(); st.RecvBatches != 1 || st.RecvPackets != 16 || st.RecvCoalesced != 16 {
		t.Fatalf("receiver: %+v, want 1 read of 16 datagrams, all coalesced", st)
	}
}

// TestSegmentedFlushMixedSizesAndPeers sends one flush that interleaves
// two destinations and several frame sizes: the writer groups it by peer,
// each peer gets its frames intact and in order, and only runs of two or
// more leave segmented.
func TestSegmentedFlushMixedSizesAndPeers(t *testing.T) {
	requireOffloads(t)
	recB, recC := newRecorder(), newRecorder()
	exec := &captureExec{}
	tx := testUnderlay(t, exec, nil)
	connect(t, tx, 2, testUnderlay(t, sim.Inline{}, recB.handle), 1)
	connect(t, tx, 2, testUnderlay(t, sim.Inline{}, recC.handle), 3)
	type send struct {
		to   wire.NodeID
		size int
	}
	// Grouped by peer, B's frames come first. B's runs: ×4 (1200,1200,
	// 1200,700), ×2 (1200, closed by the zero-length frame), 0 alone, 64
	// alone (the 1200 after it is longer), ×3 (1200), then ×2 (1300:
	// longer). C's runs: ×2 (300), ×3 (1500), ×2 (9000).
	plan := []send{
		{1, 1200}, {1, 1200}, {1, 1200}, {1, 700},
		{3, 300}, {3, 300},
		{1, 1200}, {1, 1200},
		{1, 0},
		{3, 1500}, {3, 1500}, {3, 1500},
		{1, 64},
		{3, 9000}, {3, 9000},
		{1, 1200}, {1, 1200}, {1, 1200}, {1, 1300}, {1, 1300},
	}
	const segmented = 4 + 2 + 2 + 3 + 2 + 3 + 2
	rng := rand.New(rand.NewSource(2))
	want := map[wire.NodeID][][]byte{}
	for i, s := range plan {
		p := payload(rng, i, s.size)
		want[s.to] = append(want[s.to], p)
		tx.Send(s.to, 0, p)
	}
	exec.runAll()
	if !waitFor(t, 5*time.Second, func() bool { return recB.count()+recC.count() == len(plan) }) {
		t.Fatalf("delivered %d of %d", recB.count()+recC.count(), len(plan))
	}
	sameFrames(t, "peer 1", recB.from(2), want[1])
	sameFrames(t, "peer 3", recC.from(2), want[3])
	if st := tx.Stats(); st.SendPackets != uint64(len(plan)) || st.SendSegmented != segmented || st.SendDropped != 0 {
		t.Fatalf("sender: %+v, want %d sent, %d segmented", st, len(plan), segmented)
	}
}

// TestRelayFlushSegmentsPerPeer sends a relay's forward-and-ack turn: one
// flush that alternates equal data frames to the next hop with equal,
// shorter acks to the previous hop. Each peer's frames leave as one
// segmented message and arrive as one coalesced read, intact and in order.
func TestRelayFlushSegmentsPerPeer(t *testing.T) {
	requireOffloads(t)
	recA, recC := newRecorder(), newRecorder()
	exec := &captureExec{}
	tx := testUnderlay(t, exec, nil)
	rxA := testUnderlay(t, sim.Inline{}, recA.handle)
	rxC := testUnderlay(t, sim.Inline{}, recC.handle)
	connect(t, tx, 2, rxA, 1)
	connect(t, tx, 2, rxC, 3)
	awaitGRO(t, rxA)
	awaitGRO(t, rxC)
	const n = 16
	rng := rand.New(rand.NewSource(7))
	var wantA, wantC [][]byte
	for i := 0; i < n; i++ {
		wantC = append(wantC, payload(rng, 2*i, 120))
		tx.Send(3, 0, wantC[i])
		wantA = append(wantA, payload(rng, 2*i+1, 40))
		tx.Send(1, 0, wantA[i])
	}
	exec.runAll()
	if !waitFor(t, 5*time.Second, func() bool { return recA.count()+recC.count() == 2*n }) {
		t.Fatalf("delivered %d of %d", recA.count()+recC.count(), 2*n)
	}
	sameFrames(t, "peer 1", recA.from(2), wantA)
	sameFrames(t, "peer 3", recC.from(2), wantC)
	for _, f := range tx.shards[0].writer.grouped {
		if f.buf != nil {
			t.Fatal("the writer's grouping scratch keeps a buffer past the flush")
		}
	}
	if st := tx.Stats(); st.SendBatches != 1 || st.SendPackets != 2*n || st.SendSegmented != 2*n || st.SendDropped != 0 {
		t.Fatalf("sender: %+v, want 1 flush of %d datagrams, all segmented", st, 2*n)
	}
	for _, rx := range []*UDPUnderlay{rxA, rxC} {
		if st := rx.Stats(); st.RecvBatches != 1 || st.RecvPackets != n || st.RecvCoalesced != n {
			t.Fatalf("receiver: %+v, want 1 read of %d datagrams, all coalesced", st, n)
		}
	}
}

// segmentedSendmsg sends p from conn to dst as one UDP_SEGMENT message of
// size-byte datagrams and returns the kernel's answer.
func segmentedSendmsg(t *testing.T, conn *net.UDPConn, dst netip.AddrPort, p []byte, size int) error {
	t.Helper()
	var c udpCmsg
	c.setSegmentSize(size)
	oob := unsafe.Slice((*byte)(unsafe.Pointer(&c)), udpCmsgSpace)
	to := &syscall.SockaddrInet4{Port: int(dst.Port()), Addr: dst.Addr().As4()}
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		_, serr = syscall.SendmsgN(int(fd), p, oob, to, 0)
	}); err != nil {
		t.Fatal(err)
	}
	return serr
}

// TestReaderHandsOutRemainder fills one read with more datagrams than the
// reader's table holds — a full batch of messages of 128 segments, which
// this writer never sends but newer kernels accept — and checks that the
// next read hands out the rest, every datagram intact and in order.
func TestReaderHandsOutRemainder(t *testing.T) {
	requireOffloads(t)
	tx, rx := listenLoopback(t), listenLoopback(t)
	br, err := newBatchReader(rx)
	if err != nil {
		t.Fatal(err)
	}
	if err := rx.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	const segs, size = 2 * maxSegments, 100
	dst := rx.LocalAddr().(*net.UDPAddr).AddrPort()
	rng := rand.New(rand.NewSource(6))
	var want [][]byte
	for m := 0; m < wire.ReadBatch; m++ {
		var msg []byte
		for s := 0; s < segs; s++ {
			p := payload(rng, len(want), size)
			want = append(want, p)
			msg = append(msg, p...)
		}
		if err := segmentedSendmsg(t, tx, dst, msg, size); err != nil {
			t.Skipf("a %d-segment message: %v", segs, err)
		}
	}
	n, err := br.read()
	if err != nil {
		t.Fatal(err)
	}
	if n != maxBatchDatagrams || br.next == br.msgs {
		t.Fatalf("first read: %d datagrams, %d of %d messages split; want a full table and a remainder", n, br.next, br.msgs)
	}
	var got [][]byte
	for i := 0; i < n; i++ {
		got = append(got, append([]byte(nil), br.segment(i)[:br.lens[i]]...))
	}
	rest, coalesced := drain(t, br, len(want)-n)
	if coalesced != len(want)-n {
		t.Fatalf("remainder: %d of %d datagrams counted coalesced", coalesced, len(want)-n)
	}
	sameFrames(t, "read", append(got, rest...), want)
}

// TestReaderArenaSegmentsDoNotOverlap checks the reader's landing areas:
// every message slot gets a full MaxDatagram segment of the one arena, the
// kernel's iovec points at it, and writes to one leave its neighbours
// intact.
func TestReaderArenaSegmentsDoNotOverlap(t *testing.T) {
	br, err := newBatchReader(listenLoopback(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range br.hdrs {
		seg := br.seg(i)
		if len(seg) != wire.MaxDatagram || cap(seg) != wire.MaxDatagram || br.iovs[i].Base != &seg[0] {
			t.Fatalf("segment %d: len %d cap %d, iovec at its start %v", i, len(seg), cap(seg), br.iovs[i].Base == &seg[0])
		}
		for j := range seg {
			seg[j] = byte(i + 1)
		}
	}
	for i := range br.hdrs {
		if !bytes.Equal(br.seg(i), bytes.Repeat([]byte{byte(i + 1)}, wire.MaxDatagram)) {
			t.Fatalf("segment %d corrupted by its neighbours' writes", i)
		}
	}
}

// TestReaderArenaSegmentAppendCannotBleed checks that each arena segment is
// capacity-clipped: an append past one reallocates instead of writing into
// the next.
func TestReaderArenaSegmentAppendCannotBleed(t *testing.T) {
	br, err := newBatchReader(listenLoopback(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(br.hdrs) < 2 {
		t.Fatalf("reader has %d message slots, want at least 2", len(br.hdrs))
	}
	next := br.seg(1)
	for j := range next {
		next[j] = 2
	}
	grown := append(br.seg(0), 0xBB)
	grown[wire.MaxDatagram] = 0xBB
	if &grown[0] == &br.seg(0)[0] {
		t.Fatal("append past segment 0 extended it in place")
	}
	if !bytes.Equal(br.seg(1), bytes.Repeat([]byte{2}, wire.MaxDatagram)) {
		t.Fatal("append past segment 0 bled into segment 1")
	}
}

// setNoCheck turns UDP checksums off on conn's sends (SO_NO_CHECK), which
// the kernel cannot combine with segmentation.
func setNoCheck(t *testing.T, conn *net.UDPConn) {
	t.Helper()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var serr error
	if err := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_NO_CHECK, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Skipf("SO_NO_CHECK: %v", serr)
	}
}

// TestSegmentRefusalFallsBackToPlain makes the kernel refuse a segmented
// message: the flush still delivers every frame, drops none, and the
// writer stops segmenting.
func TestSegmentRefusalFallsBackToPlain(t *testing.T) {
	requireOffloads(t)
	// The premise: with checksums off this kernel refuses a segmented
	// message with EINVAL and still sends plain datagrams.
	probe, sink := listenLoopback(t), listenLoopback(t)
	setNoCheck(t, probe)
	dst := sink.LocalAddr().(*net.UDPAddr).AddrPort()
	if err := segmentedSendmsg(t, probe, dst, make([]byte, 4*1200), 1200); !errors.Is(err, syscall.EINVAL) {
		t.Skipf("segmented send without checksums: %v, want EINVAL", err)
	}
	if _, err := probe.WriteToUDPAddrPort(make([]byte, 1200), dst); err != nil {
		t.Fatalf("plain send without checksums: %v", err)
	}

	rec := newRecorder()
	exec := &captureExec{}
	tx := testUnderlay(t, exec, nil)
	setNoCheck(t, tx.conn)
	connect(t, tx, 2, testUnderlay(t, sim.Inline{}, rec.handle), 1)
	rng := rand.New(rand.NewSource(3))
	var want [][]byte
	for i := 0; i < 16; i++ {
		want = append(want, payload(rng, i, 1200))
		tx.Send(1, 0, want[i])
	}
	exec.runAll()
	if !waitFor(t, 5*time.Second, func() bool { return rec.count() == len(want) }) {
		t.Fatalf("delivered %d of %d", rec.count(), len(want))
	}
	sameFrames(t, "delivered", rec.from(2), want)
	if st := tx.Stats(); st.SendPackets != 16 || st.SendDropped != 0 || st.SendSegmented != 0 {
		t.Fatalf("sender: %+v, want 16 sent plain, none dropped", st)
	}
	if tx.shards[0].writer.gso {
		t.Fatal("writer still segments after the kernel refused a segmented message")
	}
}

// TestOffloadInterop checks both mixed pairings, each byte-identical and in
// order: a writer that does not segment into a reader that coalesces, and
// a segmenting writer into a socket without UDP_GRO, for which the kernel
// splits the message.
func TestOffloadInterop(t *testing.T) {
	requireOffloads(t)
	rng := rand.New(rand.NewSource(4))
	var want [][]byte
	for i := 0; i < 16; i++ {
		want = append(want, payload(rng, i, 1200))
	}

	t.Run("plain writer into GRO reader", func(t *testing.T) {
		tx, rx := listenLoopback(t), listenLoopback(t)
		bw, err := newBatchWriter(tx)
		if err != nil {
			t.Fatal(err)
		}
		bw.gso = false
		br, err := newBatchReader(rx)
		if err != nil {
			t.Fatal(err)
		}
		if err := rx.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
		if sent, dropped, segmented, _ := bw.send(outFrames(to, want)); sent != len(want) || dropped != 0 || segmented != 0 {
			t.Fatalf("sent %d, dropped %d, segmented %d of %d", sent, dropped, segmented, len(want))
		}
		got, _ := drain(t, br, len(want))
		sameFrames(t, "read", got, want)
	})

	t.Run("segmenting writer into plain socket", func(t *testing.T) {
		tx, rx := listenLoopback(t), listenLoopback(t)
		bw, err := newBatchWriter(tx)
		if err != nil {
			t.Fatal(err)
		}
		if err := rx.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		to := rx.LocalAddr().(*net.UDPAddr).AddrPort()
		if sent, dropped, segmented, _ := bw.send(outFrames(to, want)); sent != len(want) || dropped != 0 || segmented != len(want) {
			t.Fatalf("sent %d, dropped %d, segmented %d of %d", sent, dropped, segmented, len(want))
		}
		var got [][]byte
		buf := make([]byte, wire.MaxDatagram)
		for len(got) < len(want) {
			n, _, err := rx.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("after %d of %d datagrams: %v", len(got), len(want), err)
			}
			got = append(got, append([]byte(nil), buf[:n]...))
		}
		sameFrames(t, "read", got, want)
	})
}

// TestSegmentationDifferential sends one seeded stream of mixed frames —
// two destinations, sizes from empty to 9000 bytes, runs of every length
// — through the writer with segmentation on and off: both deliver the
// same datagrams to each destination in the same order.
func TestSegmentationDifferential(t *testing.T) {
	requireOffloads(t)
	rng := rand.New(rand.NewSource(5))
	sizes := []int{0, 1, 64, 700, 1200, 1472, 9000}
	type planned struct {
		dest int
		p    []byte
	}
	var stream []planned
	dest, size := 0, 1200
	for i := 0; i < 1500; i++ {
		if rng.Intn(6) == 0 {
			dest = 1 - dest
		}
		if rng.Intn(5) == 0 {
			size = sizes[rng.Intn(len(sizes))]
		}
		stream = append(stream, planned{dest, payload(rng, i, size)})
	}

	run := func(gso bool) (got [2][][]byte, segmented int) {
		tx := listenLoopback(t)
		bw, err := newBatchWriter(tx)
		if err != nil {
			t.Fatal(err)
		}
		bw.gso = gso
		var rxs [2]*batchReader
		var to [2]netip.AddrPort
		for d := range rxs {
			conn := listenLoopback(t)
			if err := conn.SetReadDeadline(time.Now().Add(20 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if rxs[d], err = newBatchReader(conn); err != nil {
				t.Fatal(err)
			}
			to[d] = conn.LocalAddr().(*net.UDPAddr).AddrPort()
		}
		// Flushes of up to 100 frames and 96 KiB, so a flush fits the
		// receive buffers and runs can reach the segment cap.
		for start := 0; start < len(stream); {
			end, bytes := start, 0
			var per [2]int
			var frames []outFrame
			for end < len(stream) && end-start < 100 && bytes < 96<<10 {
				f := stream[end]
				frames = append(frames, outFrame{to: to[f.dest], buf: &wire.Buf{B: f.p}})
				per[f.dest]++
				bytes += len(f.p)
				end++
			}
			sent, dropped, seg, _ := bw.send(frames)
			if sent != len(frames) || dropped != 0 {
				t.Fatalf("segmentation %v: sent %d, dropped %d of %d", gso, sent, dropped, len(frames))
			}
			segmented += seg
			for d := range rxs {
				if per[d] > 0 {
					dg, _ := drain(t, rxs[d], per[d])
					got[d] = append(got[d], dg...)
				}
			}
			start = end
		}
		return got, segmented
	}

	on, segmented := run(true)
	off, plain := run(false)
	if segmented == 0 || plain != 0 {
		t.Fatalf("segmented %d datagrams with segmentation on, %d with it off", segmented, plain)
	}
	for d := range on {
		var want [][]byte
		for _, f := range stream {
			if f.dest == d {
				want = append(want, f.p)
			}
		}
		sameFrames(t, "segmentation on", on[d], want)
		sameFrames(t, "segmentation off", off[d], want)
	}
	t.Logf("%d of %d datagrams left segmented", segmented, len(stream))
}

// TestUnderlayOwnsItsPort binds a four-shard underlay, then a socket that
// asks for SO_REUSEPORT on the same address. The underlay's one socket
// never set the option, so the kernel must refuse the second bind: no
// other socket can take a share of the underlay's datagrams.
func TestUnderlayOwnsItsPort(t *testing.T) {
	const soReusePort = 0xf // SO_REUSEPORT, which the syscall package does not name
	execs := make([]sim.Executor, 4)
	for i := range execs {
		execs[i] = sim.Inline{}
	}
	u, err := NewShardedUDPUnderlay("127.0.0.1:0", execs, func(int, wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = u.Close() }()
	lc := net.ListenConfig{Control: func(_, _ string, c syscall.RawConn) error {
		var serr error
		if err := c.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		}); err != nil {
			return err
		}
		return serr
	}}
	pc, err := lc.ListenPacket(context.Background(), "udp", u.LocalAddr())
	if err == nil {
		_ = pc.Close()
		t.Fatalf("a SO_REUSEPORT socket joined the underlay's port %s", u.LocalAddr())
	}
	if !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("second bind on %s: %v, want EADDRINUSE", u.LocalAddr(), err)
	}
}
