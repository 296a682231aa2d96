package sim

import "testing"

// FuzzBitset drives Bitset through an arbitrary operation sequence,
// mirrored against a map reference: after every step the two must agree
// on membership, growth must preserve existing bits, and no input may
// panic. The §5/§6 engine keeps its blocked histories in it, so a single
// wrong bit silently mis-delivers messages.
func FuzzBitset(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 1, 3, 0}, uint16(64))
	f.Add([]byte{0, 200, 1, 200, 3, 0, 0, 200}, uint16(1))
	f.Add([]byte{4, 0, 0, 63, 0, 64, 2, 63}, uint16(128))
	f.Fuzz(func(t *testing.T, ops []byte, initBits uint16) {
		capBits := int(initBits)%512 + 1
		b := GrowBitset(nil, capBits)
		ref := map[int32]bool{}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%5, int32(ops[i+1])
			switch op {
			case 0: // set (grow first if out of range)
				if int(arg) >= capBits {
					b = GrowBitset(b, int(arg)+1)
					capBits = int(arg) + 1
				}
				b.Set(arg)
				ref[arg] = true
			case 1: // unset within capacity
				if int(arg) < capBits {
					b.Unset(arg)
					delete(ref, arg)
				}
			case 2: // zero
				b.Zero()
				ref = map[int32]bool{}
			case 3: // grow; every existing bit must survive
				b = GrowBitset(b, capBits+int(arg))
				capBits += int(arg)
			case 4: // re-grow to a smaller size must be a no-op
				b = GrowBitset(b, capBits/2)
			}
			for bit := range ref {
				if !b.Test(bit) {
					t.Fatalf("op %d: bit %d lost (ref has it)", i/2, bit)
				}
			}
			for bit := 0; bit < capBits; bit++ {
				if b.Test(int32(bit)) != ref[int32(bit)] {
					t.Fatalf("op %d: bit %d = %v, ref %v", i/2, bit, b.Test(int32(bit)), ref[int32(bit)])
				}
			}
		}
	})
}
