package membership

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sonet/internal/wire"
)

// ErrBadMessage reports a malformed membership payload.
var ErrBadMessage = errors.New("malformed membership message")

// Membership message kinds, carried in the first payload byte of a
// wire.PTMembership packet.
const (
	// msgUpdate floods a batch of directory records (joins, departures,
	// refutations). Receivers merge and reflood only when something
	// changed, so update propagation self-limits.
	msgUpdate = 1
	// msgDigest probes a neighbor with the sender's directory fingerprint;
	// a mismatch triggers a full sync in response (anti-entropy).
	msgDigest = 2
	// msgJoinReq asks a contact node to admit the sender to the overlay.
	msgJoinReq = 3
	// msgSync carries the sender's full directory plus its digest, so the
	// receiver can both merge and decide whether to sync back.
	msgSync = 4
)

// recLen is the encoded size of one record: id(2) epoch(4) status(1).
const recLen = 7

func appendRecord(buf []byte, r Record) []byte {
	var e [recLen]byte
	binary.BigEndian.PutUint16(e[0:], uint16(r.ID))
	binary.BigEndian.PutUint32(e[2:], r.Epoch)
	e[6] = byte(r.Status)
	return append(buf, e[:]...)
}

func decodeRecord(src []byte) Record {
	return Record{
		ID:     wire.NodeID(binary.BigEndian.Uint16(src[0:])),
		Epoch:  binary.BigEndian.Uint32(src[2:]),
		Status: Status(src[6]),
	}
}

// AppendUpdate encodes an update flood: kind(1) count(2) records.
func AppendUpdate(buf []byte, recs ...Record) []byte {
	buf = append(buf, msgUpdate)
	var c [2]byte
	binary.BigEndian.PutUint16(c[:], uint16(len(recs)))
	buf = append(buf, c[:]...)
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	return buf
}

// AppendDigest encodes an anti-entropy probe: kind(1) count(2) digest(8).
func AppendDigest(buf []byte, count int, digest uint64) []byte {
	var e [11]byte
	e[0] = msgDigest
	binary.BigEndian.PutUint16(e[1:], uint16(count))
	binary.BigEndian.PutUint64(e[3:], digest)
	return append(buf, e[:]...)
}

// AppendJoinReq encodes an admission request: kind(1) joiner(2).
func AppendJoinReq(buf []byte, joiner wire.NodeID) []byte {
	var e [3]byte
	e[0] = msgJoinReq
	binary.BigEndian.PutUint16(e[1:], uint16(joiner))
	return append(buf, e[:]...)
}

// AppendSync encodes the full directory: kind(1) digest(8) count(2)
// records.
func AppendSync(buf []byte, d *Directory) []byte {
	buf = append(buf, msgSync)
	var h [10]byte
	binary.BigEndian.PutUint64(h[0:], d.Digest())
	binary.BigEndian.PutUint16(h[8:], uint16(d.Len()))
	buf = append(buf, h[:]...)
	d.Each(func(r Record) { buf = appendRecord(buf, r) })
	return buf
}

// decodeRecords validates and returns the record region holding count
// records, each with a status the protocol defines.
func decodeRecords(src []byte, count int) ([]byte, error) {
	if len(src) < count*recLen {
		return nil, fmt.Errorf("membership: %d records in %d bytes: %w", count, len(src), ErrBadMessage)
	}
	src = src[:count*recLen]
	for i := recLen - 1; i < len(src); i += recLen {
		if !Status(src[i]).known() {
			return nil, fmt.Errorf("membership: record %d has status %d: %w", i/recLen, src[i], ErrBadMessage)
		}
	}
	return src, nil
}
