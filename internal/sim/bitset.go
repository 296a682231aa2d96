package sim

// Bitset is a fixed-layout bit vector indexed by dense node slot, so a
// hot path tests membership with a shift and a mask instead of a map
// probe. The §5/§6 overlay stacks keep their blocked-history, crash,
// leader and leaving sets in it.
//
// Concurrency contract: all writes happen on the driver goroutine
// between rounds; reads from the §5/§6 engine's workers are ordered
// after those writes by the worker-wakeup edges, so no atomics are
// needed.
type Bitset []uint64

// Test reports whether bit i is set. i must be < the grown capacity.
func (b Bitset) Test(i int32) bool {
	return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0
}

// Set sets bit i.
func (b Bitset) Set(i int32) {
	b[uint32(i)>>6] |= 1 << (uint32(i) & 63)
}

// Unset clears bit i.
func (b Bitset) Unset(i int32) {
	b[uint32(i)>>6] &^= 1 << (uint32(i) & 63)
}

// Zero clears every bit, keeping capacity.
func (b Bitset) Zero() {
	clear(b)
}

// GrowBitset returns b extended (zero-filled) to hold at least n bits.
func GrowBitset(b Bitset, n int) Bitset {
	words := (n + 63) / 64
	for len(b) < words {
		b = append(b, 0)
	}
	return b
}
