package membership

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"sonet/internal/sim"
	"sonet/internal/wire"
)

// TestUnknownStatusIsMalformed: a record whose status byte is neither joined
// nor left is refused at decode, in an update and in a sync, with the
// directory untouched and nothing sent on — merged, it superseded the live
// node's record by epoch, reflooded, and no rule ever refuted it. Apply
// refuses it too, for records that bypass the codec.
func TestUnknownStatusIsMalformed(t *testing.T) {
	env := &quietEnv{clock: sim.NewScheduler(1), nbrs: []wire.NodeID{2, 3}}
	m := NewManager(env, 1, Config{Seed: []wire.NodeID{1, 2, 3, 4}})
	digest := m.Directory().Digest()
	bad := Record{ID: 4, Epoch: 2, Status: 3}

	update := AppendUpdate(nil, Record{ID: 3, Epoch: 2, Status: StatusLeft}, bad)
	sync := AppendSync(nil, m.Directory())
	sync[len(sync)-1] = 3 // node 4's status byte, the last record's
	for name, payload := range map[string][]byte{"update": update, "sync": sync} {
		err := m.HandlePacket(2, &wire.Packet{Type: wire.PTMembership, Payload: payload})
		if !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s with status 3: err = %v, want ErrBadMessage", name, err)
		}
	}
	if m.InjectRecord(bad) || m.Directory().Apply(Record{ID: 9, Epoch: 1, Status: 0}) {
		t.Error("Apply took a record with an unknown status")
	}
	if m.Directory().Digest() != digest || !m.IsMember(3) || !m.IsMember(4) {
		t.Errorf("directory changed: members %v", m.Directory().Members(nil))
	}
	if sent := env.updates + env.syncs + env.digests; sent != 0 {
		t.Errorf("%d messages sent in answer to malformed input", sent)
	}
}

// FuzzMembershipPacket feeds arbitrary payloads to Manager.HandlePacket:
// none may panic, and whatever it accepts leaves only well-formed records in
// the directory (nonzero ID, known status). Payloads HandlePacket accepts
// whose layout is fully determined by their header re-encode to the same
// bytes through the four encoders.
func FuzzMembershipPacket(f *testing.F) {
	seedDir := NewDirectory()
	for _, r := range []Record{{ID: 1, Epoch: 1, Status: StatusJoined}, {ID: 5, Epoch: 3, Status: StatusLeft}} {
		seedDir.Apply(r)
	}
	f.Add(AppendUpdate(nil, Record{ID: 2, Epoch: 2, Status: StatusLeft}, Record{ID: 7, Epoch: 1, Status: StatusJoined}))
	f.Add(AppendSync(nil, seedDir))
	f.Add(AppendDigest(nil, seedDir.Len(), seedDir.Digest()))
	f.Add(AppendJoinReq(nil, 9))
	f.Add(AppendUpdate(nil, Record{ID: 4, Epoch: 2, Status: 3}))
	f.Add([]byte{9})
	f.Fuzz(func(t *testing.T, payload []byte) {
		env := &quietEnv{clock: sim.NewScheduler(1), nbrs: []wire.NodeID{2, 3}}
		m := NewManager(env, 1, Config{Seed: []wire.NodeID{1, 2, 3}})
		err := m.HandlePacket(2, &wire.Packet{Type: wire.PTMembership, Payload: payload})
		m.Directory().Each(func(r Record) {
			if r.ID == 0 || !r.Status.known() {
				t.Fatalf("record %+v reached the directory", r)
			}
		})
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("error %v is not ErrBadMessage", err)
			}
			return
		}
		// Accepted: the bytes HandlePacket read re-encode to themselves.
		var again []byte
		switch payload[0] {
		case msgUpdate:
			count := int(binary.BigEndian.Uint16(payload[1:]))
			recs := make([]Record, count)
			for i := range recs {
				recs[i] = decodeRecord(payload[3+i*recLen:])
			}
			again = AppendUpdate(nil, recs...)
		case msgDigest:
			again = AppendDigest(nil, int(binary.BigEndian.Uint16(payload[1:])), binary.BigEndian.Uint64(payload[3:]))
		case msgJoinReq:
			again = AppendJoinReq(nil, wire.NodeID(binary.BigEndian.Uint16(payload[1:])))
		case msgSync:
			// AppendSync encodes a directory, digest included, so only a
			// sync whose records are a directory in order re-encodes; check
			// the records, which is what the receiver read.
			count := int(binary.BigEndian.Uint16(payload[9:]))
			again = append(again, payload[:11]...)
			for i := 0; i < count; i++ {
				again = appendRecord(again, decodeRecord(payload[11+i*recLen:]))
			}
		default:
			t.Fatalf("kind %d accepted", payload[0])
		}
		if !bytes.Equal(again, payload[:len(again)]) {
			t.Fatalf("accepted payload % x re-encodes to % x", payload, again)
		}
	})
}

// TestEncoderOutputsAreAccepted: what the four encoders produce is what
// HandlePacket accepts, and a sync of a directory re-encodes to the same
// bytes from the receiver's merged copy.
func TestEncoderOutputsAreAccepted(t *testing.T) {
	src := NewDirectory()
	for _, r := range []Record{{ID: 1, Epoch: 4, Status: StatusJoined}, {ID: 2, Epoch: 2, Status: StatusLeft}, {ID: 6, Epoch: 1, Status: StatusJoined}} {
		src.Apply(r)
	}
	sync := AppendSync(nil, src)
	for name, payload := range map[string][]byte{
		"update":   AppendUpdate(nil, Record{ID: 2, Epoch: 2, Status: StatusLeft}),
		"sync":     sync,
		"digest":   AppendDigest(nil, src.Len(), src.Digest()),
		"join-req": AppendJoinReq(nil, 8),
	} {
		env := &quietEnv{clock: sim.NewScheduler(1), nbrs: []wire.NodeID{2}}
		m := NewManager(env, 9, Config{})
		if err := m.HandlePacket(2, &wire.Packet{Type: wire.PTMembership, Payload: payload}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if name == "sync" {
			if again := AppendSync(nil, m.Directory()); !bytes.Equal(again, sync) {
				t.Errorf("sync re-encodes to % x, want % x", again, sync)
			}
		}
	}
}
