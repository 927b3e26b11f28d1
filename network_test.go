package sonet

import (
	"runtime"
	"testing"
	"time"

	"sonet/internal/wire"
)

// TestNetworkMessageAllocBudget pins what a message costs an emulated
// world end to end: a RunAt-scheduled Flow.Send at node 1, two hops, and
// the OnDeliver callback at node 3 allocate at most 0.05 times per
// message in steady state beyond the payload the caller makes. No
// originated packet, scheduled event or delivered payload is a heap
// object of its own; the network's arena carves a chunk per few hundred
// payloads.
func TestNetworkMessageAllocBudget(t *testing.T) {
	if wire.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name string
		spec FlowSpec
	}{
		{"BestEffort", FlowSpec{To: 3, ToPort: 100, Service: BestEffort}},
		{"ReliableOrdered", FlowSpec{To: 3, ToPort: 100, Service: Reliable, Ordered: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				// warm is past the 8 192 packets a reliable flow's
				// history grows to hold.
				warm     = 10000
				messages = 20000
				size     = 64
				gap      = time.Millisecond
			)
			net, err := New(1, []Link{{A: 1, B: 2, Latency: 10 * time.Millisecond}, {A: 2, B: 3, Latency: 10 * time.Millisecond}})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			defer net.Close()
			dst, err := net.Connect(3, 100)
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			delivered := 0
			dst.OnDeliver(func(Delivery) { delivered++ })
			src, err := net.Connect(1, 0)
			if err != nil {
				t.Fatalf("Connect: %v", err)
			}
			flow, err := src.OpenFlow(tc.spec)
			if err != nil {
				t.Fatalf("OpenFlow: %v", err)
			}
			left := 0
			var send func()
			send = func() {
				if err := flow.Send(make([]byte, size)); err != nil {
					t.Errorf("Send: %v", err)
				}
				if left--; left > 0 {
					net.RunAt(gap, send)
				}
			}
			run := func(n int) {
				left = n
				net.RunAt(gap, send)
				net.Run(time.Duration(n)*gap + time.Second)
			}
			run(warm)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			run(messages)
			runtime.ReadMemStats(&after)
			if delivered != warm+messages {
				t.Fatalf("delivered %d of %d", delivered, warm+messages)
			}
			// make([]byte, size) is the application's payload, not the
			// network's cost.
			per := float64(after.Mallocs-before.Mallocs)/messages - 1
			t.Logf("%.4f allocations per message beyond the payload", per)
			if per > 0.05 {
				t.Fatalf("a message allocates %.4f times beyond its payload, budget 0.05", per)
			}
		})
	}
}
