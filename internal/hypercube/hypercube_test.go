package hypercube

import (
	"testing"
	"testing/quick"
)

func TestNeighborFlipsOneBit(t *testing.T) {
	f := func(vRaw uint16, iRaw uint8) bool {
		d := 10
		v := Vertex(vRaw) & Vertex(N(d)-1)
		i := int(iRaw%uint8(d)) + 1
		w := Neighbor(v, i)
		if hamming(v, w) != 1 {
			return false
		}
		// Involution.
		return Neighbor(w, i) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborsCount(t *testing.T) {
	d := 6
	seen := map[Vertex]bool{}
	for i := 1; i <= d; i++ {
		w := Neighbor(0, i)
		if seen[w] {
			t.Fatal("duplicate neighbor")
		}
		seen[w] = true
		if hamming(0, w) != 1 {
			t.Fatal("neighbor at distance != 1")
		}
	}
}

func TestBinaryCubeGraph(t *testing.T) {
	for d := 1; d <= 8; d++ {
		g := cubeGraph(d)
		if g.N() != 1<<d {
			t.Fatalf("d=%d: %d vertices", d, g.N())
		}
		if !regular(g, d) {
			t.Fatalf("d=%d: not %d-regular", d, d)
		}
		if !g.IsConnected() {
			t.Fatalf("d=%d: not connected", d)
		}
	}
	// Diameter of the d-cube is d.
	if got := eccentricity(cubeGraph(6), 0); got != 6 {
		t.Fatalf("6-cube diameter = %d, want 6", got)
	}
}

func TestKAryBasics(t *testing.T) {
	c := NewKAry(3, 4)
	if c.N() != 81 {
		t.Fatalf("3^4 = %d?", c.N())
	}
	if c.Degree() != 8 {
		t.Fatalf("degree = %d, want 8", c.Degree())
	}
	g := c.materialize()
	if !regular(g, 8) || !g.IsConnected() {
		t.Fatal("k-ary cube structure wrong")
	}
	if got := eccentricity(g, 0); got != 4 {
		t.Fatalf("k-ary diameter = %d, want 4", got)
	}
}

func TestKAryCoords(t *testing.T) {
	c := NewKAry(4, 3)
	f := func(vRaw uint16, iRaw, valRaw uint8) bool {
		v := int(vRaw) % c.N()
		i := int(iRaw) % c.D
		val := int(valRaw) % c.K
		w := c.WithCoord(v, i, val)
		if c.Coord(w, i) != val {
			return false
		}
		for j := 0; j < c.D; j++ {
			if j != i && c.Coord(w, j) != c.Coord(v, j) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKAryNeighborsDistOne(t *testing.T) {
	c := NewKAry(3, 3)
	for v := 0; v < c.N(); v++ {
		nb := c.Neighbors(v)
		if len(nb) != c.Degree() {
			t.Fatalf("vertex %d: %d neighbors", v, len(nb))
		}
		for _, w := range nb {
			if c.dist(v, w) != 1 {
				t.Fatalf("neighbor %d of %d at distance %d", w, v, c.dist(v, w))
			}
		}
	}
}

func TestKAryBinaryMatchesBinaryCube(t *testing.T) {
	c := NewKAry(2, 5)
	g1 := c.materialize()
	g2 := cubeGraph(5)
	if g1.N() != g2.N() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("2-ary cube does not match binary cube")
	}
}

func TestLabelChildParentSibling(t *testing.T) {
	root := Label{}
	if root.Dim() != 0 || root.String() != "ε" {
		t.Fatal("bad root label")
	}
	a := root.Child(0) // "0"
	b := root.Child(1) // "1"
	if a.String() != "0" || b.String() != "1" {
		t.Fatalf("children render %q %q", a.String(), b.String())
	}
	if !a.Sibling().Equal(b) || !b.Sibling().Equal(a) {
		t.Fatal("sibling wrong")
	}
	if !a.Parent().Equal(root) {
		t.Fatal("parent wrong")
	}
	ab := a.Child(1) // "01"
	if ab.String() != "01" {
		t.Fatalf("label = %q, want 01", ab.String())
	}
	if ab.Bit(1) != 0 || ab.Bit(2) != 1 {
		t.Fatal("bit order wrong")
	}
	if !root.IsAncestorOf(ab) || !a.IsAncestorOf(ab) || b.IsAncestorOf(ab) {
		t.Fatal("ancestry wrong")
	}
}

func TestLabelRoundTrip(t *testing.T) {
	f := func(bits uint64, nRaw uint8) bool {
		n := int(nRaw % 40)
		l := MakeLabel(bits, n)
		if l.Dim() != n {
			return false
		}
		// Splitting then merging returns the original.
		if n < 40 {
			c0 := l.Child(0)
			c1 := l.Child(1)
			if !c0.Parent().Equal(l) || !c1.Parent().Equal(l) {
				return false
			}
			if !c0.Sibling().Equal(c1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLabelLessOrdering(t *testing.T) {
	a := MakeLabel(0b1, 1)
	b := MakeLabel(0b00, 2)
	if !a.Less(b) {
		t.Fatal("shorter label must sort first")
	}
	c := MakeLabel(0b01, 2)
	if !b.Less(c) || c.Less(b) {
		t.Fatal("same-length labels sort by bits")
	}
}

func TestLabelPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("root.Parent", func() { (Label{}).Parent() })
	mustPanic("root.Sibling", func() { (Label{}).Sibling() })
	mustPanic("Bit(0)", func() { MakeLabel(1, 2).Bit(0) })
	mustPanic("MakeLabel(63)", func() { MakeLabel(0, 63) })
}
