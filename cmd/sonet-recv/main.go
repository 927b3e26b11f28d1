// Command sonet-recv connects to an overlay daemon, binds a virtual port
// (optionally joining a multicast group), and prints every delivered
// message with its one-way latency.
//
// Usage:
//
//	sonet-recv -daemon 127.0.0.1:8003 -port 700
//	sonet-recv -daemon 127.0.0.1:8003 -port 800 -join 42
//
// Wire mode (-wire) skips the daemon and binds a sharded UDP underlay
// directly, pairing with sonet-send -wire to reproduce the EXP-WIRE
// multi-shard scaling measurement from the command line. Flow f is
// expected from -peer-base's port plus f and registered under a peer id
// homed on shard f mod shards; the summary reports the aggregate delivery
// rate and each shard's packet/delivery/drop counters.
//
//	sonet-recv -wire -bind 127.0.0.1:7700 -shards 4 -flows 4 \
//	    -peer-base 127.0.0.1:7800 -expect 400000
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"sonet/internal/session"
	"sonet/internal/sim"
	"sonet/internal/transport"
	"sonet/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	daemon := flag.String("daemon", "127.0.0.1:8001", "daemon client address")
	port := flag.Uint("port", 700, "virtual port to bind")
	join := flag.Uint("join", 0, "multicast group to join")
	quiet := flag.Bool("quiet", false, "print only the final count")
	wireMode := flag.Bool("wire", false, "raw underlay mode: bind a sharded UDP underlay instead of dialing a daemon")
	shards := flag.Int("shards", 0, "wire mode: data-plane shards (0: one per core, capped at 8)")
	bind := flag.String("bind", "127.0.0.1:7700", "wire mode: UDP bind address")
	peerBase := flag.String("peer-base", "127.0.0.1:7800", "wire mode: sender flow base address; flow f sends from port+f")
	flows := flag.Int("flows", 1, "wire mode: sender flow count")
	expect := flag.Uint64("expect", 0, "wire mode: exit after this many frames (0: ctrl-c)")
	flag.Parse()

	if *wireMode {
		return runWire(*bind, *peerBase, *shards, *flows, *expect)
	}

	received := 0
	bytes := 0
	var first, last time.Time
	c, err := transport.Dial(*daemon, wire.Port(*port), func(d session.Delivery) {
		received++
		bytes += len(d.Payload)
		last = time.Now()
		if first.IsZero() {
			first = last
		}
		if !*quiet {
			fmt.Printf("from %v:%d seq %d latency %v%s: %s\n",
				d.From, d.SrcPort, d.Seq, d.Latency,
				map[bool]string{true: " (recovered)"}[d.Retransmitted],
				d.Payload)
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sonet-recv: %v\n", err)
		return 1
	}
	defer func() { _ = c.Close() }()
	if *join != 0 {
		if err := c.Join(wire.GroupID(*join)); err != nil {
			fmt.Fprintf(os.Stderr, "sonet-recv: %v\n", err)
			return 1
		}
	}
	fmt.Printf("sonet-recv: listening on port %d (ctrl-c to stop)\n", c.Port())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("sonet-recv: %d messages received\n", received)
	// Delivery rate over the span between the first and last message: the
	// receive half of a sonet-send -interval 0 throughput run.
	if span := last.Sub(first); received > 1 && span > 0 {
		fmt.Printf("sonet-recv: %.0f msgs/s, %.1f MB/s over %v\n",
			float64(received)/span.Seconds(),
			float64(bytes)/span.Seconds()/1e6,
			span.Round(time.Millisecond))
	}
	return 0
}

// runWire binds a sharded raw underlay, counts frames until the expected
// total (or ctrl-c), and prints the per-shard and aggregate delivery-rate
// summary for the EXP-WIRE CLI reproduction.
func runWire(bind, peerBase string, shards, flows int, expect uint64) int {
	base, err := netip.ParseAddrPort(peerBase)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sonet-recv: -peer-base: %v\n", err)
		return 2
	}
	loops := sim.NewShardedLoop(shards)
	defer loops.Close()
	var received, bytes atomic.Uint64
	var firstNs, lastNs atomic.Int64
	done := make(chan struct{}, 1)
	u, err := transport.NewShardedUDPUnderlay(bind, loops.Executors(), func(_ int, _ wire.NodeID, data []byte) {
		now := time.Now().UnixNano()
		firstNs.CompareAndSwap(0, now)
		lastNs.Store(now)
		bytes.Add(uint64(len(data)))
		if received.Add(1) == expect {
			select {
			case done <- struct{}{}:
			default:
			}
		}
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sonet-recv: %v\n", err)
		return 1
	}
	defer func() { _ = u.Close() }()
	// A peer's frames are delivered on its home shard, so flow f gets an id
	// homed on shard f mod shards: the flows spread evenly over the loops.
	next := wire.NodeID(1)
	for f := 0; f < flows; f++ {
		id := wire.HomedID(next, f%u.NumShards(), u.NumShards())
		next = id + 1
		port := base.Port() + uint16(f)
		if err := u.AddPeer(id, netip.AddrPortFrom(base.Addr(), port).String()); err != nil {
			fmt.Fprintf(os.Stderr, "sonet-recv: %v\n", err)
			return 1
		}
	}
	fmt.Printf("sonet-recv: wire mode on %s — %d shards (plane %s), %d flows from %s (ctrl-c to stop)\n",
		u.LocalAddr(), u.NumShards(), transport.Plane, flows, peerBase)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case <-done:
	}
	for s := 0; s < u.NumShards(); s++ {
		st := u.ShardStats(s)
		fmt.Printf("sonet-recv: shard %d: recv %d (%d coalesced) delivered %d drops %d (%.1f pkts/read)\n",
			s, st.RecvPackets, st.RecvCoalesced, st.RecvDelivered, st.HandoffDrops, st.RecvBatchAvg())
	}
	agg := u.Stats()
	fmt.Printf("sonet-recv: %d frames received (%d unknown-sender)\n", received.Load(), agg.RecvUnknown)
	if span := time.Duration(lastNs.Load() - firstNs.Load()); received.Load() > 1 && span > 0 {
		fmt.Printf("sonet-recv: %.0f msgs/s, %.1f MB/s over %v (%.1f pkts/read aggregate)\n",
			float64(received.Load())/span.Seconds(),
			float64(bytes.Load())/span.Seconds()/1e6,
			span.Round(time.Millisecond), agg.RecvBatchAvg())
	}
	return 0
}
