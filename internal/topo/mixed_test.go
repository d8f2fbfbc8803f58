package topo

import (
	"fmt"
	"testing"
)

// TestMixedCoordsRoundTrip pins the single-pass accessors to the
// stride-based ones over every node of a few shapes: CoordsInto must
// agree with Coord per dimension and Index must invert it.
func TestMixedCoordsRoundTrip(t *testing.T) {
	for _, shape := range [][]int{{2, 3, 2}, {4, 2, 5}, {3, 3, 3, 3}, {2, 2}} {
		m := MustMixed(shape...)
		var coords []int
		for a := 0; a < m.Nodes(); a++ {
			id := NodeID(a)
			coords = m.CoordsInto(id, coords[:0])
			if len(coords) != m.Dim() {
				t.Fatalf("%v: CoordsInto(%d) has %d digits, want %d", shape, a, len(coords), m.Dim())
			}
			for i, v := range coords {
				if want := m.Coord(id, i); v != want {
					t.Fatalf("%v: CoordsInto(%d)[%d] = %d, Coord gives %d", shape, a, i, v, want)
				}
			}
			if back := m.Index(coords); back != id {
				t.Fatalf("%v: Index(CoordsInto(%d)) = %d", shape, a, back)
			}
			if back, err := m.Parse(m.Format(id)); err != nil || back != id {
				t.Fatalf("%v: Parse(Format(%d)) = %d, %v", shape, a, back, err)
			}
			// Siblings along i are WithCoord over every other value of
			// coordinate i, in ascending order.
			for i := range coords {
				var want []NodeID
				for v := 0; v < m.Radix(i); v++ {
					w := m.WithCoord(id, i, v)
					if v == coords[i] {
						if w != id {
							t.Fatalf("%v: WithCoord(%d, %d, own value) = %d", shape, a, i, w)
						}
						continue
					}
					if m.Coord(w, i) != v || m.Distance(id, w) != 1 {
						t.Fatalf("%v: WithCoord(%d, %d, %d) = %d", shape, a, i, v, w)
					}
					want = append(want, w)
				}
				if got := m.Siblings(id, i, nil); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%v: Siblings(%d, %d) = %v, want %v", shape, a, i, got, want)
				}
			}
		}
	}
}

// TestMixedPairwiseAccessors checks the divmod-walk Distance, Adjacent,
// LinkDim, and NavIn against their coordinate-by-coordinate definitions
// over every node pair of GH(4x3x2).
func TestMixedPairwiseAccessors(t *testing.T) {
	m := MustMixed(2, 3, 4)
	for a := 0; a < m.Nodes(); a++ {
		for b := 0; b < m.Nodes(); b++ {
			ia, ib := NodeID(a), NodeID(b)
			dist, link := 0, -1
			var nav NavVector
			for i := 0; i < m.Dim(); i++ {
				if m.Coord(ia, i) != m.Coord(ib, i) {
					dist++
					nav |= 1 << uint(i)
					if link < 0 {
						link = i
					}
				}
			}
			if got := m.Distance(ia, ib); got != dist {
				t.Fatalf("Distance(%d,%d) = %d, want %d", a, b, got, dist)
			}
			if got := m.Adjacent(ia, ib); got != (dist == 1) {
				t.Fatalf("Adjacent(%d,%d) = %v, want %v", a, b, got, dist == 1)
			}
			if dist == 1 {
				if got := m.LinkDim(ia, ib); got != link {
					t.Fatalf("LinkDim(%d,%d) = %d, want %d", a, b, got, link)
				}
			}
			if got := NavIn(m, ia, ib); got != nav {
				t.Fatalf("NavIn(%d,%d) = %b, want %b", a, b, got, nav)
			}
		}
	}
}

// The tests below pin GH(2x3x2), the shape of the paper's Fig. 5, and
// carry the names they had on the former GH adapter package.

func TestNewValidation(t *testing.T) {
	if _, err := NewMixed(nil); err == nil {
		t.Error("empty radix should fail")
	}
	if _, err := NewMixed([]int{2, 1, 2}); err == nil {
		t.Error("radix 1 should fail")
	}
	m, err := NewMixed([]int{2, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 12 || m.Dim() != 3 || m.Degree() != 4 {
		t.Errorf("GH(2x3x2): nodes=%d dim=%d degree=%d", m.Nodes(), m.Dim(), m.Degree())
	}
	if m.Radix(0) != 2 || m.Radix(1) != 3 || m.Radix(2) != 2 {
		t.Error("radix accessors wrong")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustMixed(1) should panic")
		}
	}()
	MustMixed(1)
}

func TestCoordinateRoundTrip(t *testing.T) {
	m := MustMixed(2, 3, 2)
	for a := 0; a < m.Nodes(); a++ {
		id := NodeID(a)
		s := m.Format(id)
		back, err := m.Parse(s)
		if err != nil || back != id {
			t.Fatalf("round-trip %d -> %q -> %d (%v)", a, s, back, err)
		}
	}
	if _, err := m.Parse("05"); err == nil {
		t.Error("short address should fail")
	}
	if _, err := m.Parse("031"); err == nil {
		t.Error("digit outside radix should fail")
	}
	if m.Format(m.MustParse("021")) != "021" {
		t.Error("format mismatch")
	}
}

func TestWithCoordAndCoord(t *testing.T) {
	m := MustMixed(2, 3, 2)
	a := m.MustParse("021")
	if m.Coord(a, 0) != 1 || m.Coord(a, 1) != 2 || m.Coord(a, 2) != 0 {
		t.Fatalf("coords of 021: %d %d %d", m.Coord(a, 0), m.Coord(a, 1), m.Coord(a, 2))
	}
	if got := m.WithCoord(a, 1, 0); got != m.MustParse("001") {
		t.Errorf("WithCoord = %s", m.Format(got))
	}
	if got := m.WithCoord(a, 2, 1); got != m.MustParse("121") {
		t.Errorf("WithCoord = %s", m.Format(got))
	}
}

func TestDistanceAndAdjacency(t *testing.T) {
	m := MustMixed(2, 3, 2)
	if d := m.Distance(m.MustParse("010"), m.MustParse("101")); d != 3 {
		t.Errorf("Distance(010, 101) = %d, want 3", d)
	}
	// All siblings along a radix-3 dimension are mutually adjacent.
	if !m.Adjacent(m.MustParse("000"), m.MustParse("020")) {
		t.Error("000 and 020 should be adjacent (complete connection)")
	}
	if m.Adjacent(m.MustParse("000"), m.MustParse("000")) {
		t.Error("self adjacency")
	}
	if m.Adjacent(m.MustParse("000"), m.MustParse("011")) {
		t.Error("two-coordinate difference is not an edge")
	}
}

func TestSiblings(t *testing.T) {
	m := MustMixed(2, 3, 2)
	sibs := m.Siblings(m.MustParse("010"), 1, nil)
	if len(sibs) != 2 {
		t.Fatalf("dimension-1 siblings = %d, want 2", len(sibs))
	}
	want := map[NodeID]bool{m.MustParse("000"): true, m.MustParse("020"): true}
	for _, b := range sibs {
		if !want[b] {
			t.Errorf("unexpected sibling %s", m.Format(b))
		}
	}
	if got := m.Siblings(m.MustParse("010"), 0, nil); len(got) != 1 || got[0] != m.MustParse("011") {
		t.Errorf("dimension-0 sibling = %v", got)
	}
}

// TestPathHelpers checks the topology-generic Path helpers on a GH,
// where one hop may change a coordinate by more than one.
func TestPathHelpers(t *testing.T) {
	m := MustMixed(2, 3, 2)
	p := Path(m.MustParseAll("010", "000", "001", "101"))
	if !p.Valid(m) || !p.Simple() || p.Len() != 3 {
		t.Error("paper path should be a simple valid 3-hop path")
	}
	if p.FormatWith(m) != "010 -> 000 -> 001 -> 101" {
		t.Errorf("FormatWith = %s", p.FormatWith(m))
	}
	if jump := Path(m.MustParseAll("000", "020")); !jump.Valid(m) {
		t.Error("000 -> 020 is a single GH hop")
	}
	bad := Path(m.MustParseAll("010", "101"))
	if bad.Valid(m) {
		t.Error("non-adjacent pair is not a path")
	}
	var empty Path
	if empty.Valid(m) || empty.Len() != 0 {
		t.Error("empty path invalid with length 0")
	}
	loop := Path(m.MustParseAll("010", "000", "010"))
	if loop.Simple() {
		t.Error("loop is not simple")
	}
}

func TestWideRadixFormat(t *testing.T) {
	m := MustMixed(12, 2)
	if s := m.Format(NodeID(11)); s != "0.11" {
		t.Errorf("wide format = %q, want 0.11", s)
	}
}
