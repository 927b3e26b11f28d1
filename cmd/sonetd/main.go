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
// topology and send every running daemon SIGHUP. Each daemon re-reads its
// config and applies it (transport.Daemon.Apply, the same path its start
// took): a new link incident to it admits the other endpoint live (hello
// probing started, link state re-announced), a new remote link grows its
// topology view so it can route through the newcomer, and a withdrawn
// incident link evicts the departed neighbor. A new incident link whose
// peer has no address yet is admitted all the same and starts probing
// once a later reload supplies the address; re-adding an evicted link
// brings it back up. No restart required.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"sonet/internal/transport"
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
		next, err := loadConfig(*cfgPath)
		if err == nil {
			err = d.Apply(next)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "sonetd: reload: %v\n", err)
			continue
		}
		fmt.Println("sonetd: reloaded", *cfgPath)
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
