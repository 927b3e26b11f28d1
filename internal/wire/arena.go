package wire

// arenaChunk is the allocation unit an Arena carves copies from.
const arenaChunk = 32 << 10

// Arena carves private byte copies out of shared chunks: one allocation
// serves dozens of messages, and each copy is an independent heap slice
// whose ownership passes to whoever it is handed to (a chunk is collected
// once every copy carved from it is dead). A copy larger than a quarter
// chunk gets an allocation of its own. An Arena belongs to one goroutine:
// a client connection's read loop, or an emulated world's scheduler.
//
// A holder that keeps a sparse few copies long after the rest are dead
// keeps their chunks alive; such a holder should copy them.
type Arena struct{ free []byte }

// Copy returns a private, capacity-clipped copy of b: appending to it
// reallocates rather than write into a neighbour's bytes.
func (a *Arena) Copy(b []byte) []byte {
	if len(b) > arenaChunk/4 {
		return append([]byte(nil), b...)
	}
	if len(b) > len(a.free) {
		a.free = make([]byte, arenaChunk)
	}
	out := a.free[:len(b):len(b)]
	a.free = a.free[len(b):]
	copy(out, b)
	return out
}
