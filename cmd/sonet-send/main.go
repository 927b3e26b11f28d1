// Command sonet-send connects to an overlay daemon and sends messages on
// a flow, one per line of standard input (or a fixed count of generated
// messages with -count).
//
// Usage:
//
//	sonet-send -daemon 127.0.0.1:8001 -to 3 -port 700 [-service reliable]
//	sonet-send -daemon 127.0.0.1:8001 -group 42 -port 800 -count 100
//
// Throughput mode: -count with -size and -interval 0 blasts fixed-size
// payloads back to back and reports the sustained send rate, pairing
// with sonet-recv's delivery-rate summary to measure the wire plane end
// to end.
//
//	sonet-send -daemon 127.0.0.1:8001 -to 3 -count 100000 -size 1200 -interval 0
//
// Wire mode (-wire) skips the daemon and blasts raw frames at a
// sonet-recv -wire underlay from -flows source sockets bound to
// consecutive ports (flow f at -bind's port plus f, so the receiver can
// register each flow deterministically). Frames coalesce 32 per flush,
// exercising the sendmmsg batch path.
//
//	sonet-send -wire -bind 127.0.0.1:7800 -peer 127.0.0.1:7700 \
//	    -flows 4 -count 400000 -size 1200
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net/netip"
	"os"
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
	to := flag.Uint("to", 0, "destination node ID (unicast)")
	group := flag.Uint("group", 0, "destination group ID (multicast)")
	anycast := flag.Bool("anycast", false, "deliver to one group member only")
	port := flag.Uint("port", 700, "destination virtual port")
	service := flag.String("service", "besteffort", "link service: besteffort|reliable|realtime|singlestrike|it-priority|it-reliable")
	ordered := flag.Bool("ordered", false, "in-order delivery (with no deadline: fully reliable)")
	deadline := flag.Duration("deadline", 0, "one-way latency budget (e.g. 200ms)")
	disjoint := flag.Int("disjoint", 0, "route over K node-disjoint paths")
	flood := flag.Bool("flood", false, "constrained flooding")
	count := flag.Int("count", 0, "send this many generated messages instead of reading stdin")
	size := flag.Int("size", 0, "generated payload size in bytes (0: short text messages)")
	interval := flag.Duration("interval", 10*time.Millisecond, "gap between generated messages (0: blast)")
	wireMode := flag.Bool("wire", false, "raw underlay mode: blast frames at a sonet-recv -wire underlay")
	bind := flag.String("bind", "127.0.0.1:7800", "wire mode: flow base address; flow f binds port+f")
	peer := flag.String("peer", "127.0.0.1:7700", "wire mode: receiver underlay address")
	flows := flag.Int("flows", 1, "wire mode: source socket count")
	flag.Parse()

	if *wireMode {
		return runWire(*bind, *peer, *flows, *count, *size, *interval)
	}

	proto, ok := wire.ParseLinkProto(*service)
	if !ok {
		fmt.Fprintf(os.Stderr, "sonet-send: unknown service %q\n", *service)
		return 2
	}
	c, err := transport.Dial(*daemon, 0, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sonet-send: %v\n", err)
		return 1
	}
	defer func() { _ = c.Close() }() // for the error returns; the normal exit checks Close
	c.OnError(func(err error) { fmt.Fprintf(os.Stderr, "sonet-send: %v\n", err) })
	flow, err := c.OpenFlow(session.FlowSpec{
		DstNode:   wire.NodeID(*to),
		DstPort:   wire.Port(*port),
		Group:     wire.GroupID(*group),
		Anycast:   *anycast,
		LinkProto: proto,
		Ordered:   *ordered,
		Deadline:  *deadline,
		DisjointK: *disjoint,
		Flood:     *flood,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sonet-send: %v\n", err)
		return 1
	}

	sent := 0
	bytes := 0
	if *count > 0 {
		start := time.Now()
		for i := 0; i < *count; i++ {
			var msg []byte
			if *size > 0 {
				msg = make([]byte, *size)
				copy(msg, fmt.Sprintf("msg-%d", i))
			} else {
				msg = []byte(fmt.Sprintf("msg-%d", i))
			}
			if err := flow.Send(msg); err != nil {
				fmt.Fprintf(os.Stderr, "sonet-send: %v\n", err)
				return 1
			}
			sent++
			bytes += len(msg)
			if *interval > 0 {
				time.Sleep(*interval)
			}
		}
		if elapsed := time.Since(start); *interval == 0 && elapsed > 0 {
			fmt.Printf("sonet-send: %d msgs in %v: %.0f msgs/s, %.1f MB/s\n",
				sent, elapsed.Round(time.Millisecond),
				float64(sent)/elapsed.Seconds(),
				float64(bytes)/elapsed.Seconds()/1e6)
		}
	} else {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if err := flow.Send(append([]byte(nil), sc.Bytes()...)); err != nil {
				fmt.Fprintf(os.Stderr, "sonet-send: %v\n", err)
				return 1
			}
			sent++
		}
	}
	// Give in-flight recovery a moment before tearing down the session.
	time.Sleep(200 * time.Millisecond)
	// Send only queues, so a write that fails at the end is Close's error.
	if err := c.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "sonet-send: %v\n", err)
		return 1
	}
	fmt.Printf("sonet-send: %d messages sent\n", sent)
	return 0
}

// runWire blasts count frames of size bytes at the receiver from flows
// source sockets on consecutive ports, flushing every 32 frames, and
// prints the aggregate and per-flow send summary.
func runWire(bind, peer string, flows, count, size int, interval time.Duration) int {
	if count <= 0 {
		fmt.Fprintln(os.Stderr, "sonet-send: wire mode needs -count")
		return 2
	}
	if size <= 0 {
		size = 1200
	}
	base, err := netip.ParseAddrPort(bind)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sonet-send: -bind: %v\n", err)
		return 2
	}
	txs := make([]*transport.UDPUnderlay, flows)
	// One turn queue per flow, so wire-mode sends coalesce into sendmmsg
	// batches; this goroutine is the only poster.
	execs := make([]*sim.TurnQueue, flows)
	for f := 0; f < flows; f++ {
		addr := netip.AddrPortFrom(base.Addr(), base.Port()+uint16(f)).String()
		execs[f] = &sim.TurnQueue{}
		tx, err := transport.NewUDPUnderlay(addr, execs[f], func(wire.NodeID, []byte) {})
		if err != nil {
			fmt.Fprintf(os.Stderr, "sonet-send: flow %d: %v\n", f, err)
			return 1
		}
		defer func() { _ = tx.Close() }()
		if err := tx.AddPeer(1, peer); err != nil {
			fmt.Fprintf(os.Stderr, "sonet-send: %v\n", err)
			return 1
		}
		txs[f] = tx
	}
	payload := make([]byte, size)
	fmt.Printf("sonet-send: wire mode — %d frames of %d B to %s over %d flows (plane %s)\n",
		count, size, peer, flows, transport.Plane)
	start := time.Now()
	for i := 0; i < count; i++ {
		f := i % flows
		txs[f].Send(1, 0, payload)
		if i%32 == 31 || i == count-1 {
			for _, e := range execs {
				e.Run()
			}
		}
		if interval > 0 {
			time.Sleep(interval)
		}
	}
	for _, e := range execs {
		e.Run()
	}
	elapsed := time.Since(start)
	var sent, dropped uint64
	for f, tx := range txs {
		st := tx.Stats()
		sent += st.SendPackets
		dropped += st.SendDropped
		fmt.Printf("sonet-send: flow %d (%s): sent %d (%d segmented) in %d batches, dropped %d\n",
			f, tx.LocalAddr(), st.SendPackets, st.SendSegmented, st.SendBatches, st.SendDropped)
	}
	if elapsed > 0 {
		fmt.Printf("sonet-send: %d frames in %v: %.0f msgs/s, %.1f MB/s (%d dropped at source)\n",
			sent, elapsed.Round(time.Millisecond),
			float64(sent)/elapsed.Seconds(),
			float64(sent)*float64(size)/elapsed.Seconds()/1e6, dropped)
	}
	return 0
}
