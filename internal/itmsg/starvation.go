package itmsg

import "sonet/internal/wire"

// StarvationResult is one point of the EXP-FAIR starvation-under-attack
// sweep, run directly against the round-robin core at scheduler scale.
type StarvationResult struct {
	// Flows is the number of honest flows sharing the link with one
	// attacker.
	Flows int
	// Rounds is how many full link rounds (capacity Flows+1 packets each)
	// were served.
	Rounds int
	// AttackerServed counts packets the flooding attacker got through.
	AttackerServed int
	// HonestMinServed / HonestMaxServed bound honest per-flow service.
	HonestMinServed int
	HonestMaxServed int
}

// Holds reports whether the fair-share shape held: each honest flow is
// owed exactly one packet per round, and the attacker's 100x flood must
// not buy it more than its own single share (±1 for the start-up
// transient).
func (r StarvationResult) Holds() bool {
	return r.HonestMinServed >= r.Rounds-1 &&
		r.HonestMaxServed <= r.Rounds+1 &&
		r.AttackerServed <= r.Rounds+1
}

// StarvationSweep runs the §IV-B starvation experiment at core level:
// nFlows honest flows, each kept backlogged at its fair share, compete
// with one attacker flooding 100 packets per round. Fair service is
// exactly one packet per flow per round.
func StarvationSweep(nFlows, rounds int) StarvationResult {
	c := NewCore(CoreConfig{FlowBuffer: 128, Policy: PolicyEvictLowest})
	defer c.Close()

	honestKey := func(i int) FlowKey {
		return FlowKey{Src: wire.NodeID(i%60000 + 1), Dst: wire.NodeID(i / 60000)}
	}
	attacker := FlowKey{Src: 60001, Dst: 60001}

	var p wire.Packet
	p.Type = wire.PTData
	p.Route = wire.RouteLinkState
	enq := func(key FlowKey) {
		p.Src, p.Dst = key.Src, key.Dst
		c.Enqueue(key, &p)
	}

	// Prefill: two packets per honest flow so every flow stays backlogged
	// across the one-packet-per-round top-up below.
	for i := 0; i < nFlows; i++ {
		k := honestKey(i)
		enq(k)
		enq(k)
	}

	served := make(map[FlowKey]int, nFlows+1)
	for round := 0; round < rounds; round++ {
		for i := 0; i < 100; i++ {
			enq(attacker)
		}
		for i := 0; i < nFlows; i++ {
			enq(honestKey(i))
		}
		for i := 0; i < nFlows+1; i++ {
			pkt, buf, ok := c.Dequeue(0)
			if !ok {
				break
			}
			served[FlowKey{Src: pkt.Src, Dst: pkt.Dst}]++
			if buf != nil {
				buf.Release()
			}
		}
	}

	res := StarvationResult{Flows: nFlows, Rounds: rounds, AttackerServed: served[attacker]}
	res.HonestMinServed = rounds + 1
	for i := 0; i < nFlows; i++ {
		s := served[honestKey(i)]
		if s < res.HonestMinServed {
			res.HonestMinServed = s
		}
		if s > res.HonestMaxServed {
			res.HonestMaxServed = s
		}
	}
	return res
}
