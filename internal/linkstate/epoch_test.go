package linkstate

import (
	"encoding/binary"
	"testing"
	"time"

	"sonet/internal/topology"
	"sonet/internal/wire"
)

// epochPair is two started managers on one 10 ms link, hellos every 100 ms.
func epochPair(t *testing.T) *world {
	g := topology.NewGraph()
	if _, err := g.AddLink(1, 2, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return newWorld(t, g, Config{HelloInterval: 100 * time.Millisecond}, 1)
}

// injectHello hands node to a hello from its peer carrying epoch, as if
// the peer had sent it.
func injectHello(w *world, to wire.NodeID, epoch uint32) {
	f := wire.Frame{Proto: wire.LPBestEffort, Kind: wire.FHello, Seq: (epoch & EpochMask) << 8, SendTime: w.sched.Now()}
	w.envs[to].mgr.HandleControl(3-to, &f)
}

// restart is a local restart of node's sessions to its peer, as a down or
// up transition makes it.
func restart(w *world, node wire.NodeID) {
	m := w.envs[node].mgr
	m.restartSessions(3-node, m.neighbors[3-node])
}

// linkEpochs returns each end's epoch for the link 1–2 and whether either
// end still awaits its peer's confirmation.
func linkEpochs(w *world) (e1, e2 uint32, awaiting bool) {
	a, b := w.envs[1].mgr.neighbors[2], w.envs[2].mgr.neighbors[1]
	return a.epoch, b.epoch, a.awaitPeer || b.awaitPeer
}

// TestEpochCeilingWraps drives a link's session epoch to the top of the
// 24 bits a hello carries — peer hellos with 2^23−1, then 2^24−1, each
// ahead of the last, which both ends adopt — and resets one end once. Its
// epoch wraps to 0, which the peer must take as ahead of 2^24−1 and adopt
// within one hello round; the reset end is confirmed the round after.
// Compared as plain integers, the wrapped epoch read as behind and the
// reset end waited for ever.
func TestEpochCeilingWraps(t *testing.T) {
	w := epochPair(t)
	w.sched.RunFor(time.Second)
	for _, e := range []uint32{1<<23 - 1, EpochMask} {
		injectHello(w, 2, e)
		w.sched.RunFor(time.Second)
	}
	if e1, e2, awaiting := linkEpochs(w); e1 != EpochMask || e2 != EpochMask || awaiting {
		t.Fatalf("premise: epochs %#x/%#x awaiting %v, want both at the ceiling and settled", e1, e2, awaiting)
	}
	restart(w, 1)
	const round = 110 * time.Millisecond // one hello interval and one link latency
	w.sched.RunFor(round)
	e1, e2, _ := linkEpochs(w)
	if e1 != 0 || e2 != e1 {
		t.Fatalf("one round after the reset: epochs %#x/%#x, want the peer to hold the reset end's 0", e1, e2)
	}
	w.sched.RunFor(round)
	if _, _, awaiting := linkEpochs(w); awaiting {
		t.Fatal("the reset end still awaits its peer two rounds after the reset")
	}
}

// TestEpochAheadAgreesWithIntegerOrder: within 2^23 of each other, serial
// order is the integer order the epochs were compared by before they
// wrapped, and of two distinct epochs exactly one is ahead.
func TestEpochAheadAgreesWithIntegerOrder(t *testing.T) {
	for _, c := range [][2]uint32{{0, 1}, {5, 9}, {0, 1<<23 - 1}, {0, 1 << 23}, {1 << 22, 3 << 22}, {7, 7}} {
		h, e := c[0], c[1]
		if epochAhead(h, e) != (h > e) || epochAhead(e, h) != (e > h) {
			t.Fatalf("epochAhead on %#x, %#x disagrees with integer order", h, e)
		}
	}
	for _, c := range [][2]uint32{{0, EpochMask}, {3, 1<<23 + 3}, {1<<23 + 1, 1}, {100, 1<<24 - 100}} {
		if epochAhead(c[0], c[1]) == epochAhead(c[1], c[0]) {
			t.Fatalf("epochs %#x and %#x: both or neither ahead", c[0], c[1])
		}
	}
}

// FuzzHelloEpoch drives both ends of one link through arbitrary injected
// hellos and one-sided resets, then lets the link run clean: no injection,
// no reset, no loss. The epoch handshake must close (closure in the
// self-stabilization sense): after three clean hello rounds both ends
// hold the same epoch and neither awaits its peer. Each step is one op
// byte, its low two bits the op and bit 2 the node:
//
//	0: a hello with the absolute epoch in the next three bytes
//	1: a hello with an epoch the next two bytes (signed) from the node's own
//	2: a local reset (bit 3, once link down or up, restarts the same way)
//	3: the next byte in milliseconds of time
func FuzzHelloEpoch(f *testing.F) {
	f.Add([]byte{0, 0xff, 0xff, 0xff, 3, 200, 3, 200, 3, 200, 2})
	f.Add([]byte{1, 0x80, 0x00, 3, 50, 6, 3, 5, 2})
	f.Add([]byte{0, 0x80, 0x00, 0x00, 2, 3, 1, 4, 0x7f, 0xff, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		w := epochPair(t)
		w.sched.RunFor(500 * time.Millisecond)
		for i := 0; i < len(ops); i++ {
			op, node := ops[i], wire.NodeID(1+ops[i]>>2&1)
			own := w.envs[node].mgr.neighbors[3-node].epoch
			switch op & 3 {
			case 0:
				if i+3 < len(ops) {
					injectHello(w, node, uint32(ops[i+1])<<16|uint32(ops[i+2])<<8|uint32(ops[i+3]))
					i += 3
				}
			case 1:
				if i+2 < len(ops) {
					injectHello(w, node, own+uint32(int16(binary.BigEndian.Uint16(ops[i+1:]))))
					i += 2
				}
			case 2:
				restart(w, node)
			case 3:
				if i+1 < len(ops) {
					w.sched.RunFor(time.Duration(ops[i+1]) * time.Millisecond)
					i++
				}
			}
		}
		w.sched.RunFor(310 * time.Millisecond)
		if e1, e2, awaiting := linkEpochs(w); e1 != e2 || awaiting {
			t.Fatalf("after three clean rounds: epochs %#x/%#x, awaiting %v", e1, e2, awaiting)
		}
	})
}
