package linkstate

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sonet/internal/wire"
)

// ErrBadAdvertisement reports a malformed link-state payload.
var ErrBadAdvertisement = errors.New("malformed link-state advertisement")

// Entry is one link's advertised condition.
type Entry struct {
	// Link identifies the advertised overlay link.
	Link wire.LinkID
	// Up is the link's availability.
	Up bool
	// Latency is the measured one-way latency.
	Latency time.Duration
	// Loss is the measured one-way loss fraction.
	Loss float64
}

// Advertisement is one node's sequence-numbered report of the condition of
// its adjacent overlay links — the unit of Connectivity Graph Maintenance
// flooding.
type Advertisement struct {
	// Origin is the advertising node.
	Origin wire.NodeID
	// Seq orders advertisements from one origin; receivers keep the
	// highest. Delta and full advertisements share one sequence space per
	// origin, so the highest-seq rule needs no special cases.
	Seq uint32
	// Delta marks a partial advertisement carrying only the origin's
	// changed links, so flood cost scales with the change, not the degree.
	// A full advertisement (Delta false) remains authoritative for every
	// adjacent link and serves as the anti-entropy fallback: the periodic
	// refresh repairs any receiver that missed a delta.
	Delta bool
	// Entries lists the origin's adjacent links (all of them when full,
	// only the changed ones when Delta).
	Entries []Entry
}

// advEntryLen is the encoded size of one entry: link(2) up(1) latency
// µs(4) loss ‱(2).
const advEntryLen = 9

// advHeaderLen is origin(2) seq(4) flags(1) count(1).
const advHeaderLen = 8

// advFlagDelta marks a delta advertisement in the header flags byte.
const advFlagDelta = 0x01

// latencyUnits and lossUnits are an entry's quality as encoded: whole
// microseconds below 2^32, whole hundredths of a percent in [0, 1]; quality
// is what a receiver makes of them. Encoding a decoded quality yields the
// same units again (lossUnits rounds, because k/10000 × 10000 can fall just
// below k), so an origin that keeps quality(units(measured)) holds exactly
// what every receiver of its advertisement holds.
func latencyUnits(d time.Duration) uint32 {
	return uint32(min(max(d/time.Microsecond, 0), 1<<32-1))
}

func lossUnits(loss float64) uint16 { return uint16(min(max(loss, 0), 1)*10000 + 0.5) }

func quality(us uint32, bp uint16) (time.Duration, float64) {
	return time.Duration(us) * time.Microsecond, float64(bp) / 10000
}

// Marshal encodes the advertisement.
func (a *Advertisement) Marshal() []byte {
	buf := make([]byte, advHeaderLen, advHeaderLen+len(a.Entries)*advEntryLen)
	binary.BigEndian.PutUint16(buf[0:], uint16(a.Origin))
	binary.BigEndian.PutUint32(buf[2:], a.Seq)
	if a.Delta {
		buf[6] = advFlagDelta
	}
	buf[7] = byte(len(a.Entries))
	var e [advEntryLen]byte
	for _, entry := range a.Entries {
		binary.BigEndian.PutUint16(e[0:], uint16(entry.Link))
		if entry.Up {
			e[2] = 1
		} else {
			e[2] = 0
		}
		binary.BigEndian.PutUint32(e[3:], latencyUnits(entry.Latency))
		binary.BigEndian.PutUint16(e[7:], lossUnits(entry.Loss))
		buf = append(buf, e[:]...)
	}
	return buf
}

// peekAdvertisement validates a link-state payload's framing and returns
// the origin and sequence from its fixed header, decoding no entry: a
// flood delivers most copies of an advertisement after the first, and
// those are discarded on these two fields alone.
func peekAdvertisement(src []byte) (origin wire.NodeID, seq uint32, err error) {
	if len(src) < advHeaderLen {
		return 0, 0, fmt.Errorf("linkstate: header %d bytes: %w", len(src), ErrBadAdvertisement)
	}
	if count, body := int(src[7]), len(src)-advHeaderLen; body < count*advEntryLen {
		return 0, 0, fmt.Errorf("linkstate: %d entries in %d bytes: %w", count, body, ErrBadAdvertisement)
	}
	return wire.NodeID(binary.BigEndian.Uint16(src[0:])), binary.BigEndian.Uint32(src[2:]), nil
}

// decode fills a from a payload peekAdvertisement accepted, reusing
// a.Entries' backing array.
func (a *Advertisement) decode(src []byte) {
	a.Origin = wire.NodeID(binary.BigEndian.Uint16(src[0:]))
	a.Seq = binary.BigEndian.Uint32(src[2:])
	a.Delta = src[6]&advFlagDelta != 0
	a.Entries = a.Entries[:0]
	for e := src[advHeaderLen : advHeaderLen+int(src[7])*advEntryLen]; len(e) > 0; e = e[advEntryLen:] {
		latency, loss := quality(binary.BigEndian.Uint32(e[3:]), binary.BigEndian.Uint16(e[7:]))
		a.Entries = append(a.Entries, Entry{
			Link:    wire.LinkID(binary.BigEndian.Uint16(e[0:])),
			Up:      e[2] == 1,
			Latency: latency,
			Loss:    loss,
		})
	}
}
