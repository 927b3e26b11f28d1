// Command sonetd runs one structured overlay node daemon over real UDP:
// it exchanges link-level frames with its overlay neighbors, maintains
// the shared connectivity and group state, and serves clients on a TCP
// session listener.
//
// Usage:
//
//	sonetd -config node1.json
//
// The JSON config (transport.DaemonConfig) declares the node's ID, the
// shared overlay topology, every peer's UDP address(es), and the bind
// addresses:
//
//	{
//	  "id": 1,
//	  "bind_udp": "127.0.0.1:7001",
//	  "bind_tcp": "127.0.0.1:8001",
//	  "peers": {"2": ["127.0.0.1:7002"], "3": ["127.0.0.1:7003"]},
//	  "links": [
//	    {"a": 1, "b": 2, "latency_ms": 10},
//	    {"a": 2, "b": 3, "latency_ms": 10}
//	  ]
//	}
//
// Runtime admission: regenerate the configs with the grown (or shrunk)
// topology and send every running daemon SIGHUP. Each daemon diffs its
// reloaded link set: a new link incident to it admits the other
// endpoint live — addresses registered, hello probing started, link
// state re-announced — a new remote link grows its topology view so it
// can route through the newcomer, and a withdrawn incident link evicts
// the departed neighbor. No restart required.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"sonet/internal/transport"
	"sonet/internal/wire"
)

func main() {
	os.Exit(run())
}

func run() int {
	cfgPath := flag.String("config", "", "path to daemon JSON config (required)")
	shards := flag.Int("shards", 0, "data-plane shards (overrides config; 0 keeps config or one per core, capped at 8)")
	flag.Parse()
	if *cfgPath == "" {
		fmt.Fprintln(os.Stderr, "sonetd: -config is required")
		flag.Usage()
		return 2
	}
	cfg, err := loadConfig(*cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sonetd: %v\n", err)
		return 1
	}
	if *shards != 0 {
		cfg.Shards = *shards
	}
	d, err := transport.NewDaemon(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sonetd: %v\n", err)
		return 1
	}
	defer d.Close()
	fmt.Printf("sonetd: node %v up — frames on %s (%d shards)", cfg.ID, d.UDPAddr(), d.Shards())
	if addr := d.TCPAddr(); addr != "" {
		fmt.Printf(", clients on %s", addr)
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s != syscall.SIGHUP {
			break
		}
		// Runtime admission: re-read the config and apply the membership
		// delta. New peers are admitted (addresses registered, link added,
		// hello probing begins, LSAs re-announced); removed peers are
		// evicted (link withdrawn, addresses dropped).
		next, err := loadConfig(*cfgPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sonetd: reload: %v\n", err)
			continue
		}
		applyMembershipDelta(d, &cfg, next)
	}
	fmt.Println("sonetd: shutting down")
	return 0
}

func loadConfig(path string) (transport.DaemonConfig, error) {
	var cfg transport.DaemonConfig
	raw, err := os.ReadFile(path)
	if err != nil {
		return cfg, err
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return cfg, fmt.Errorf("parse %s: %w", path, err)
	}
	return cfg, nil
}

// applyMembershipDelta diffs the reloaded config against the running
// state. Links decide adjacency: a new link incident to this daemon
// admits the other endpoint as a live neighbor (addresses registered,
// hello probing started, link state re-announced), a new remote link
// grows the topology view so SPF can route through it, and a withdrawn
// incident link evicts the departed neighbor. Peers is the address
// book: new entries not covered by an admission are registered so
// frames can reach them, departed entries are dropped. cur is updated
// in place to the applied state.
func applyMembershipDelta(d *transport.Daemon, cur *transport.DaemonConfig, next transport.DaemonConfig) {
	have := make(map[[2]wire.NodeID]bool, len(cur.Links))
	for _, l := range cur.Links {
		have[linkKey(l.A, l.B)] = true
	}
	for _, l := range next.Links {
		if have[linkKey(l.A, l.B)] {
			continue
		}
		switch {
		case l.A == cur.ID || l.B == cur.ID:
			peer := l.A
			if peer == cur.ID {
				peer = l.B
			}
			addrs := next.Peers[peer]
			if err := d.AdmitPeer(peer, l.LatencyMs, addrs...); err != nil {
				fmt.Fprintf(os.Stderr, "sonetd: admit %v: %v\n", peer, err)
				continue
			}
			fmt.Printf("sonetd: admitted peer %v (%v)\n", peer, addrs)
			if cur.Peers == nil {
				cur.Peers = make(map[wire.NodeID][]string)
			}
			cur.Peers[peer] = addrs
		default:
			if err := d.LearnLink(l.A, l.B, l.LatencyMs); err != nil {
				fmt.Fprintf(os.Stderr, "sonetd: learn link %v-%v: %v\n", l.A, l.B, err)
				continue
			}
			fmt.Printf("sonetd: learned link %v-%v\n", l.A, l.B)
		}
		cur.Links = append(cur.Links, l)
	}
	want := make(map[[2]wire.NodeID]bool, len(next.Links))
	for _, l := range next.Links {
		want[linkKey(l.A, l.B)] = true
	}
	kept := cur.Links[:0]
	for _, l := range cur.Links {
		if want[linkKey(l.A, l.B)] {
			kept = append(kept, l)
			continue
		}
		if l.A == cur.ID || l.B == cur.ID {
			peer := l.A
			if peer == cur.ID {
				peer = l.B
			}
			d.EvictPeer(peer)
			fmt.Printf("sonetd: evicted peer %v\n", peer)
			delete(cur.Peers, peer)
		}
		// A withdrawn remote link stays in the view administratively down;
		// its endpoints' LSA floods already withdrew its availability.
	}
	cur.Links = kept
	for id, addrs := range next.Peers {
		if id == cur.ID {
			continue
		}
		if _, known := cur.Peers[id]; known {
			continue
		}
		if err := d.AddPeer(id, addrs...); err != nil {
			fmt.Fprintf(os.Stderr, "sonetd: add peer %v: %v\n", id, err)
			continue
		}
		if cur.Peers == nil {
			cur.Peers = make(map[wire.NodeID][]string)
		}
		cur.Peers[id] = addrs
	}
	for id := range cur.Peers {
		if id == cur.ID {
			continue
		}
		if _, still := next.Peers[id]; still {
			continue
		}
		d.RemovePeer(id)
		delete(cur.Peers, id)
	}
}

// linkKey canonicalizes an undirected link's endpoints.
func linkKey(a, b wire.NodeID) [2]wire.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]wire.NodeID{a, b}
}
