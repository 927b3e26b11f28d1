package wire

// HomeShard maps an overlay node to its home data-plane shard by a stable
// FNV-1a hash of the node id. The deployed daemon homes each peer's link
// sessions, dedup windows, and QoS cores on this shard, and its UDP
// underlay delivers every data frame the peer sends there, so a peer's
// frames arrive on the shard that owns its protocol state. The hash
// depends only on (id, shards): every daemon in a deployment computes the
// same homing, and re-registering a peer's addresses never moves it.
func HomeShard(id NodeID, shards int) int {
	if shards <= 1 {
		return 0
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(id&0xff)) * prime
	h = (h ^ uint64(id>>8)) * prime
	return int(h % uint64(shards))
}

// HomedID returns the smallest node id at or above from whose home among
// shards is shard (0 <= shard < max(shards, 1)): how a rig picks a peer
// that lands on the loop it wants.
func HomedID(from NodeID, shard, shards int) NodeID {
	for HomeShard(from, shards) != shard {
		from++
	}
	return from
}

// DatagramIsControl classifies a marshaled frame without decoding it:
// true means the frame belongs to the overlay's control plane — hello
// probes and their acks, and best-effort data frames carrying link-state,
// group-state, or membership packets — which a sharded daemon handles on
// the control
// shard regardless of the sending peer's home shard. Everything else
// (data packets, acks, retransmission requests) is per-peer link-session
// traffic that must stay on the peer's home shard.
//
// The classification peeks fixed offsets of the wire format: the frame
// kind at byte 1, the flags at byte 2, the optional length-prefixed auth
// blob after the 28-byte fixed header, and the packet type in the first
// packet byte. Truncated or unrecognizable input classifies as data; the
// full decoder rejects it later on whichever shard it lands.
func DatagramIsControl(b []byte) bool {
	if len(b) < frameFixedLen {
		return false
	}
	switch FrameKind(b[1]) {
	case FHello, FHelloAck:
		return true
	case FData:
	default:
		return false
	}
	flags := b[2]
	if flags&frameHasPacket == 0 {
		return false
	}
	off := frameFixedLen
	if flags&frameHasAuth != 0 {
		if len(b) <= off {
			return false
		}
		off += 1 + int(b[off])
	}
	if len(b) <= off {
		return false
	}
	switch PacketType(b[off]) {
	case PTLinkState, PTGroupState, PTMembership:
		return true
	}
	return false
}
