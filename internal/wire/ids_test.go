package wire

import "testing"

// TestParseLinkProtoRoundTrip pins ParseLinkProto as the inverse of
// String: every defined protocol parses back from its own mnemonic, and
// neither an unknown name nor the mnemonic of an undefined ID parses.
func TestParseLinkProtoRoundTrip(t *testing.T) {
	ids := []LinkProtoID{LPBestEffort, LPReliable, LPRealTime, LPSingleStrike, LPITPriority, LPITReliable}
	for _, id := range ids {
		got, ok := ParseLinkProto(id.String())
		if !ok || got != id {
			t.Errorf("ParseLinkProto(%q) = %v, %v; want %v", id.String(), got, ok, id)
		}
	}
	for _, name := range []string{"tcp", "", LinkProtoID(0).String(), (LPITReliable + 1).String()} {
		if got, ok := ParseLinkProto(name); ok {
			t.Errorf("ParseLinkProto(%q) = %v, want no match", name, got)
		}
	}
}
