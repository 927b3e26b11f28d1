package wire

import (
	"bytes"
	"testing"
)

// TestArenaCopiesArePrivate: a copy reads as its source did, whatever
// later happens to the source or to the copies carved next to it, and
// appending to a copy never writes into a neighbour.
func TestArenaCopiesArePrivate(t *testing.T) {
	var a Arena
	src := []byte("hello")
	first := a.Copy(src)
	second := a.Copy([]byte("world"))
	src[0] = 'j'
	if cap(first) != len(first) {
		t.Fatalf("copy has capacity %d past its length %d", cap(first), len(first))
	}
	_ = append(first, '!')
	if string(first) != "hello" || string(second) != "world" {
		t.Fatalf("copies read %q %q, want hello world", first, second)
	}
	big := bytes.Repeat([]byte{7}, arenaChunk)
	if got := a.Copy(big); !bytes.Equal(got, big) {
		t.Fatal("a copy larger than the chunk differs from its source")
	}
	if got := a.Copy(nil); len(got) != 0 {
		t.Fatalf("copy of nothing has length %d", len(got))
	}
}
