package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// TestRemovePeerUnregisters covers peer departure: after RemovePeer the
// departed peer's frames drop as unknown, Send toward it is a no-op, and
// a later AddPeer re-registers from a clean slate.
func TestRemovePeerUnregisters(t *testing.T) {
	var mu sync.Mutex
	var got []string
	a, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(from wire.NodeID, data []byte) {
		mu.Lock()
		got = append(got, string(data))
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := a.AddPeer(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(got)
	}
	b.Send(1, 0, []byte("hello"))
	if !waitFor(t, 2*time.Second, func() bool { return count() == 1 }) {
		t.Fatal("frame from registered peer not delivered")
	}

	a.RemovePeer(2)
	a.RemovePeer(2) // removing an unknown peer is a no-op

	// Frames from the removed peer drop as unknown.
	unknownBefore := a.Stats().RecvUnknown
	b.Send(1, 0, []byte("stale"))
	if !waitFor(t, 2*time.Second, func() bool { return a.Stats().RecvUnknown > unknownBefore }) {
		t.Fatal("frame from removed peer was not counted unknown")
	}
	if count() != 1 {
		t.Fatal("frame from removed peer was delivered")
	}
	// Send toward the removed peer is a silent no-op.
	a.Send(2, 0, []byte("into the void"))

	// Re-registration restores delivery both ways.
	if err := a.AddPeer(2, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	b.Send(1, 0, []byte("back"))
	if !waitFor(t, 2*time.Second, func() bool { return count() == 2 }) {
		t.Fatal("frame after re-registration not delivered")
	}
}

// TestRemoveReRegisterRace hammers the copy-on-write peer table from
// three sides at once — removals, re-registrations, and a steady sender —
// so the race detector can see any snapshot torn between the sender
// column and the peer column. The final re-register must leave the peer
// fully functional.
func TestRemoveReRegisterRace(t *testing.T) {
	a, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = a.Close() }()
	b, err := NewUDPUnderlay("127.0.0.1:0", sim.Inline{}, func(wire.NodeID, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = b.Close() }()
	if err := b.AddPeer(1, a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	addr := b.LocalAddr()

	const iters = 300
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			a.RemovePeer(2)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := a.AddPeer(2, addr); err != nil {
				t.Errorf("re-register: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			// Send reads the COW snapshot concurrently with the mutators;
			// toward a mid-removal peer it must degrade to a no-op, never
			// crash or send to a torn entry.
			a.Send(2, 0, []byte(fmt.Sprintf("m%d", i)))
			b.Send(1, 0, []byte("reply"))
		}
	}()
	wg.Wait()

	// Whatever interleaving won, a final re-register must fully restore
	// the peer, home shard included.
	if err := a.AddPeer(2, addr); err != nil {
		t.Fatal(err)
	}
	if ent := a.table.Load().peers[2]; ent.home != 0 || len(ent.addrs) != 1 {
		t.Fatalf("re-registered entry %+v, want one address on home shard 0", ent)
	}
	sent := a.Stats().SendPackets
	a.Send(2, 0, []byte("final"))
	if !waitFor(t, 2*time.Second, func() bool { return a.Stats().SendPackets > sent }) {
		t.Fatal("send after final re-register did not transmit")
	}
}
