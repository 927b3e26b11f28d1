package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"testing"
)

// refWriteFrame is the encoder this package shipped before the batched
// edge: header and body as two separate writes. Tests replay its output
// through the frameReader to pin the wire format.
func refWriteFrame(w io.Writer, msg []byte) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	_, _ = w.Write(hdr[:])
	_, _ = w.Write(msg)
}

// refDecode is the trivial reference decoder: it cuts a complete byte
// stream into frames and says how the stream ends. clean means the stream
// ended on a frame boundary; otherwise it ended in a truncated frame or an
// oversized header.
func refDecode(stream []byte) (frames [][]byte, clean bool) {
	for {
		if len(stream) == 0 {
			return frames, true
		}
		if len(stream) < 4 {
			return frames, false
		}
		n := binary.BigEndian.Uint32(stream)
		if n > maxMessage || uint64(len(stream)-4) < uint64(n) {
			return frames, false
		}
		frames = append(frames, stream[4:4+n])
		stream = stream[4+n:]
	}
}

// chunkReader hands a byte stream out in seeded random pieces and counts
// its Read calls.
type chunkReader struct {
	data  []byte
	rng   *rand.Rand
	reads int
}

func newChunkReader(data []byte, seed uint64) *chunkReader {
	return &chunkReader{data: data, rng: rand.New(rand.NewPCG(seed, 0x5eed))}
}

func (c *chunkReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.data), fragment(c.rng))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// fragment draws a piece length that often splits a 4-byte header (1, 2,
// 3) and sometimes spans many frames.
func fragment(rng *rand.Rand) int {
	switch rng.IntN(4) {
	case 0:
		return 1 + rng.IntN(3)
	case 1:
		return 1 + rng.IntN(64)
	case 2:
		return 1 + rng.IntN(4096)
	default:
		return 1 + rng.IntN(2*frameBufSize)
	}
}

// checkAgainstReference decodes stream through a frameReader fed in
// random chunks and requires exactly the reference decoder's frames, then
// an error of the matching kind.
func checkAgainstReference(t *testing.T, stream []byte, seed uint64) {
	t.Helper()
	want, clean := refDecode(stream)
	cr := newChunkReader(stream, seed)
	fr := newFrameReader(cr)
	for i, w := range want {
		ready, before := fr.buffered(), cr.reads
		got, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d/%d: %v", i, len(want), err)
		}
		if ready && cr.reads != before {
			t.Fatalf("frame %d: buffered() was true but next read the stream", i)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(w))
		}
	}
	_, err := fr.next()
	switch {
	case err == nil:
		t.Fatalf("decoded a frame beyond the reference's %d", len(want))
	case clean && err != io.EOF:
		t.Fatalf("clean end of stream reported as %v", err)
	case !clean && err == io.EOF:
		t.Fatal("truncated or oversized tail reported as a clean EOF")
	}
}

// appendFrame appends msg to dst as one length-prefixed frame: the stream
// a peer writes, built by hand.
func appendFrame(dst, msg []byte) ([]byte, error) {
	if len(msg) > maxMessage {
		return dst, fmt.Errorf("transport: message %d bytes exceeds %d", len(msg), maxMessage)
	}
	return append(appendFrameHeader(dst, len(msg)), msg...), nil
}

func TestFrameRoundTrip(t *testing.T) {
	buf, err := appendFrame(nil, []byte("hello"))
	if err != nil {
		t.Fatalf("appendFrame: %v", err)
	}
	if buf, err = appendFrame(buf, nil); err != nil {
		t.Fatalf("appendFrame(empty): %v", err)
	}
	fr := newFrameReader(bytes.NewReader(buf))
	got, err := fr.next()
	if err != nil || string(got) != "hello" {
		t.Fatalf("next = %q, %v", got, err)
	}
	if !fr.buffered() {
		t.Fatal("second frame arrived with the first but is not reported buffered")
	}
	got, err = fr.next()
	if err != nil || len(got) != 0 {
		t.Fatalf("next(empty) = %q, %v", got, err)
	}
	if _, err = fr.next(); err != io.EOF {
		t.Fatalf("next at end of stream = %v, want io.EOF", err)
	}
}

func TestFrameRejectsOversized(t *testing.T) {
	if _, err := appendFrame(nil, make([]byte, maxMessage+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// A forged oversized header must be rejected on read, before any
	// buffer is sized from it.
	hdr := binary.BigEndian.AppendUint32(nil, maxMessage+1)
	fr := newFrameReader(bytes.NewReader(append(hdr, make([]byte, 64)...)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := fr.next()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("oversized header accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= maxMessage {
		t.Fatalf("rejecting an oversized header allocated %d bytes", grew)
	}
	if !fr.buffered() {
		t.Fatal("a buffered oversized header must not make the caller wait for more input")
	}
}

// TestFrameReaderScratchPath crosses the fixed buffer: frames larger than
// it take the scratch path, with small frames either side sharing reads
// with their head and tail.
func TestFrameReaderScratchPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	var stream []byte
	for _, n := range []int{5, frameBufSize - 4, frameBufSize - 3, 0, frameBufSize + 1, 3, maxMessage, 1, 3 * frameBufSize, 1200} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(rng.Uint32())
		}
		stream, _ = appendFrame(stream, msg)
	}
	for seed := uint64(0); seed < 8; seed++ {
		checkAgainstReference(t, stream, seed)
	}
	// Truncation inside a scratch-path body is an unexpected EOF.
	fr := newFrameReader(bytes.NewReader(stream[:len(stream)-1300-maxMessage/2]))
	var err error
	for err == nil {
		_, err = fr.next()
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated large frame: %v, want unexpected EOF", err)
	}
}

// oldEncoderStream is a byte stream recorded from the pre-batching
// encoder (writeFrame): connect on port 700, an open-flow request, two
// sends on flow 1 (one empty), a join of group 9 and an empty frame.
const oldEncoderStream = "" +
	"00000003" + "0102bc" +
	"00000014" + "0400010003" + "02bc" + "00000000" + "02" + "02" + "00" + "00" + "00000000" + "07" +
	"00000008" + "050001" + "68656c6c6f" +
	"00000003" + "050001" +
	"00000005" + "0200000009" +
	"00000000"

// TestFrameWireCompat proves an old client interoperates with a new
// daemon and the reverse: the recorded stream of the old encoder decodes
// to the same messages, the old two-write encoder and appendFrame emit
// identical bytes, and fragmentation does not matter.
func TestFrameWireCompat(t *testing.T) {
	recorded, err := hex.DecodeString(oldEncoderStream)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{
		{msgConnect, 0x02, 0xbc},
		{msgOpenFlow, 0, 1, 0, 3, 0x02, 0xbc, 0, 0, 0, 0, flowFlagOrdered, 2, 0, 0, 0, 0, 0, 0, 7},
		append([]byte{msgSend, 0, 1}, "hello"...),
		{msgSend, 0, 1},
		{msgJoin, 0, 0, 0, 9},
		{},
	}
	var oldBytes bytes.Buffer
	var newBytes []byte
	for _, m := range want {
		refWriteFrame(&oldBytes, m)
		newBytes, _ = appendFrame(newBytes, m)
	}
	if !bytes.Equal(oldBytes.Bytes(), recorded) {
		t.Fatal("reference encoder no longer reproduces the recorded stream")
	}
	if !bytes.Equal(newBytes, recorded) {
		t.Fatalf("appendFrame changed the wire format:\n got %x\nwant %x", newBytes, recorded)
	}
	fr := newFrameReader(newChunkReader(recorded, 1))
	for i, w := range want {
		got, err := fr.next()
		if err != nil || !bytes.Equal(got, w) {
			t.Fatalf("recorded frame %d = %x, %v; want %x", i, got, err, w)
		}
	}
	for seed := uint64(0); seed < 32; seed++ {
		checkAgainstReference(t, recorded, seed)
	}
}

// FuzzFrameReader feeds arbitrary byte streams in arbitrary chunk sizes:
// the reader must never panic, never size a buffer from a length above
// maxMessage, and decode exactly what the reference decoder yields.
func FuzzFrameReader(f *testing.F) {
	recorded, _ := hex.DecodeString(oldEncoderStream)
	f.Add(recorded, uint64(1))
	f.Add([]byte{0, 0, 0}, uint64(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}, uint64(3))
	f.Add([]byte{0, 0x10, 0, 1, 9, 9, 9}, uint64(4))
	f.Add(append(binary.BigEndian.AppendUint32(nil, frameBufSize+1), make([]byte, frameBufSize+1)...), uint64(5))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 7, 0, 0, 0, 2, 8}, uint64(6))
	f.Fuzz(func(t *testing.T, stream []byte, seed uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		checkAgainstReference(t, stream, seed)
		runtime.ReadMemStats(&after)
		// The fixed buffer, one maxMessage scratch body at a time, and the
		// reference's frame list: anything near a forged multi-gigabyte
		// length would dwarf this.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(len(stream))*64+8*maxMessage {
			t.Fatalf("decoding %d bytes allocated %d", len(stream), grew)
		}
	})
}
