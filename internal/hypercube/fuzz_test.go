package hypercube

import "testing"

// FuzzLabelOperations exercises the split/merge label algebra on
// arbitrary inputs: children invert to parents, siblings are
// involutions, and ancestry is antisymmetric.
func FuzzLabelOperations(f *testing.F) {
	f.Add(uint64(0b0110), 4, uint64(0b10), 2)
	f.Add(uint64(0), 0, uint64(1), 1)
	f.Add(uint64(0xffffffff), 30, uint64(0x7), 3)
	f.Fuzz(func(t *testing.T, aBits uint64, aLen int, bBits uint64, bLen int) {
		aLen = clampLen(aLen)
		bLen = clampLen(bLen)
		a := MakeLabel(aBits, aLen)
		b := MakeLabel(bBits, bLen)

		if a.Dim() != aLen {
			t.Fatalf("dim %d != %d", a.Dim(), aLen)
		}
		if aLen < 60 {
			c0, c1 := a.Child(0), a.Child(1)
			if !c0.Parent().Equal(a) || !c1.Parent().Equal(a) {
				t.Fatal("child/parent not inverse")
			}
			if !c0.Sibling().Equal(c1) || !c1.Sibling().Equal(c0) {
				t.Fatal("sibling not an involution")
			}
			if !a.IsAncestorOf(c0) || !a.IsAncestorOf(c1) {
				t.Fatal("parent not ancestor of children")
			}
		}
		if a.IsAncestorOf(b) && b.IsAncestorOf(a) {
			t.Fatal("mutual ancestry")
		}
	})
}

func clampLen(n int) int {
	if n < 0 {
		n = -n
	}
	return n % 61
}

// FuzzKAryCoords checks coordinate get/set round trips for arbitrary
// cube shapes and vertices.
func FuzzKAryCoords(f *testing.F) {
	f.Add(3, 4, 17, 2, 1)
	f.Add(2, 5, 0, 0, 1)
	f.Fuzz(func(t *testing.T, k, d, v, i, val int) {
		k = 2 + abs(k)%9
		d = 1 + abs(d)%6
		c := NewKAry(k, d)
		v = abs(v) % c.N()
		i = abs(i) % d
		val = abs(val) % k
		w := c.WithCoord(v, i, val)
		if c.Coord(w, i) != val {
			t.Fatalf("coord %d of %d = %d, want %d", i, w, c.Coord(w, i), val)
		}
		for j := 0; j < d; j++ {
			if j != i && c.Coord(w, j) != c.Coord(v, j) {
				t.Fatal("WithCoord disturbed another coordinate")
			}
		}
		if c.dist(v, w) > 1 {
			t.Fatal("single-coordinate change moved distance > 1")
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // MinInt
			return 0
		}
		return -x
	}
	return x
}
