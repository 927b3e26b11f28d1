// Package itmsg implements the intrusion-tolerant messaging services of
// §IV-B: source authentication (Ed25519) and per-link authentication
// (HMAC-SHA256), plus the two fair-forwarding link disciplines —
// Intrusion-Tolerant Priority (per-source buffers, priority eviction,
// round-robin) and Intrusion-Tolerant Reliable (per-flow buffers,
// backpressure, round-robin) — that keep compromised nodes from starving
// correct sources with resource-consumption attacks.
//
// Dissemination-side intrusion tolerance (k node-disjoint paths and
// constrained flooding) is provided by the routing level; these services
// compose with it.
package itmsg

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"sonet/internal/wire"
)

// Keyring holds one node's signing key, every valid node's verification
// key, and pairwise link keys. Because the number of overlay nodes is
// small, each overlay node can know the identities of all valid overlay
// nodes in the system (§IV-B).
type Keyring struct {
	self    wire.NodeID
	signKey ed25519.PrivateKey
	// peers holds every valid node's verification key and the pairwise
	// HMAC key shared with it, by node ID.
	peers wire.NodeTable[*peerKeys]
}

// peerKeys is what a keyring holds for one node.
type peerKeys struct {
	verify ed25519.PublicKey
	link   []byte
}

// NewDeterministicKeyring derives a full keyring for node self from a
// shared deployment seed: every node derives the same key material, which
// stands in for the out-of-band provisioning a real deployment would use.
func NewDeterministicKeyring(self wire.NodeID, all []wire.NodeID, seed []byte) *Keyring {
	k := &Keyring{self: self}
	for _, n := range all {
		priv := ed25519.NewKeyFromSeed(deriveSeed(seed, "sign", uint32(n), 0))
		pub, ok := priv.Public().(ed25519.PublicKey)
		if !ok {
			continue
		}
		if n == self {
			k.signKey = priv
		}
		a, b := self, n
		if a > b {
			a, b = b, a
		}
		k.peers.Put(n, &peerKeys{verify: pub, link: deriveSeed(seed, "link", uint32(a), uint32(b))})
	}
	return k
}

func deriveSeed(seed []byte, label string, a, b uint32) []byte {
	h := sha256.New()
	h.Write(seed)
	h.Write([]byte(label))
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[0:], a)
	binary.BigEndian.PutUint32(buf[4:], b)
	h.Write(buf[:])
	return h.Sum(nil)
}

// TableBytes returns the memory of the per-node key table.
func (k *Keyring) TableBytes() int { return k.peers.Bytes() }

// Self returns the keyring's node.
func (k *Keyring) Self() wire.NodeID { return k.self }

// SignPacket attaches the node's Ed25519 signature to p and sets FSigned.
// The signature covers everything except the hop-mutable TTL. The
// canonical encoding is built in a pooled buffer, so the signature is the
// one allocation.
func (k *Keyring) SignPacket(p *wire.Packet) error {
	if k.signKey == nil {
		return fmt.Errorf("itmsg: node %v has no signing key", k.self)
	}
	p.Flags |= wire.FSigned
	p.Sig = nil
	buf := wire.DefaultBufPool.Get(p.MarshaledSize())
	defer buf.Release()
	msg, err := p.AppendSignable(buf.B)
	if err != nil {
		return fmt.Errorf("itmsg: sign: %w", err)
	}
	buf.B = msg
	p.Sig = ed25519.Sign(k.signKey, msg)
	return nil
}

// VerifyPacket checks p's source signature against the claimed source
// node's public key.
func (k *Keyring) VerifyPacket(p *wire.Packet) bool {
	if !p.Flags.Has(wire.FSigned) || len(p.Sig) != ed25519.SignatureSize {
		return false
	}
	pk := k.peers.At(p.Src)
	if pk == nil {
		return false
	}
	buf := wire.DefaultBufPool.Get(p.MarshaledSize())
	defer buf.Release()
	msg, err := p.AppendSignable(buf.B)
	if err != nil {
		return false
	}
	buf.B = msg
	return ed25519.Verify(pk.verify, msg, p.Sig)
}

// MacFrame attaches the pairwise HMAC for the link to peer. The canonical
// encoding is built in a pooled buffer, so MACing adds no per-frame buffer
// allocation.
func (k *Keyring) MacFrame(f *wire.Frame, peer wire.NodeID) error {
	pk := k.peers.At(peer)
	if pk == nil {
		return fmt.Errorf("itmsg: no link key for peer %v", peer)
	}
	f.Auth = nil
	buf := wire.DefaultBufPool.Get(f.MarshaledSize())
	defer buf.Release()
	msg, err := f.AppendAuthable(buf.B)
	if err != nil {
		return fmt.Errorf("itmsg: mac: %w", err)
	}
	buf.B = msg
	mac := hmac.New(sha256.New, pk.link)
	mac.Write(msg)
	f.Auth = mac.Sum(nil)
	return nil
}

// VerifyFrame checks a frame's link HMAC against the pairwise key shared
// with peer.
func (k *Keyring) VerifyFrame(f *wire.Frame, peer wire.NodeID) bool {
	pk := k.peers.At(peer)
	if pk == nil || len(f.Auth) == 0 {
		return false
	}
	buf := wire.DefaultBufPool.Get(f.MarshaledSize())
	defer buf.Release()
	msg, err := f.AppendAuthable(buf.B)
	if err != nil {
		return false
	}
	buf.B = msg
	mac := hmac.New(sha256.New, pk.link)
	mac.Write(msg)
	return hmac.Equal(mac.Sum(nil), f.Auth)
}
