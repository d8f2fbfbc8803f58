package core

// Heavier exhaustive sweeps, all above the n-1 guarantee bound: the
// algorithm owes no delivery there, but every behavior it does exhibit
// must stay within contract — clean source-side aborts, exact H / H+2
// deliveries, fault-free walks, and consistent fixpoints.

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/faults"
	"repro/internal/topo"
)

func TestExhaustiveQ4FiveFaults(t *testing.T) {
	// All C(16,5) = 4368 five-fault sets in Q4 with every pair routed.
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short mode")
	}
	c := topo.MustCube(4)
	count := 0
	disconnected := 0
	forEachFaultSet(t, topo.MustCube(4), 5, func(s *faults.Set) {
		count++
		as := Compute(s, Options{})
		if err := as.Verify(); err != nil {
			t.Fatalf("faults %s: %v", s, err)
		}
		labels, comps := faults.Components(s)
		if comps > 1 {
			disconnected++
			// Theorem 4 holds for every disconnected instance.
			if baseline.WuFernandez(s).SafeCount() != 0 {
				t.Fatalf("faults %s: disconnected but WF set nonempty", s)
			}
		}
		rt := NewRouter(as, nil)
		for src := 0; src < c.Nodes(); src++ {
			sid := topo.NodeID(src)
			if s.NodeFaulty(sid) {
				continue
			}
			for dst := 0; dst < c.Nodes(); dst++ {
				did := topo.NodeID(dst)
				if s.NodeFaulty(did) {
					continue
				}
				r := rt.Unicast(sid, did)
				if labels[sid] != labels[did] && r.Outcome != Failure {
					t.Fatalf("faults %s: cross-partition %s -> %s delivered",
						s, c.Format(sid), c.Format(did))
				}
				if r.Outcome == Failure {
					if r.Err != nil {
						t.Fatalf("faults %s: transport error %v", s, r.Err)
					}
					continue
				}
				h := topo.Hamming(sid, did)
				wantLen := h
				if r.Outcome == Suboptimal {
					wantLen = h + 2
				}
				if r.Len() != wantLen {
					t.Fatalf("faults %s: %s -> %s length %d, want %d",
						s, c.Format(sid), c.Format(did), r.Len(), wantLen)
				}
			}
		}
	})
	if count != 4368 {
		t.Errorf("enumerated %d fault sets, want 4368", count)
	}
	if disconnected == 0 {
		t.Error("expected disconnected instances among five-fault sets")
	}
}

func TestExhaustiveQ4TwoLinkFaults(t *testing.T) {
	// Every pair of distinct faulty links in Q4 (C(32,2) = 496
	// instances): EGS consistency, N2 classification, and route
	// contracts for all pairs.
	if testing.Short() {
		t.Skip("exhaustive enumeration skipped in -short mode")
	}
	c := topo.MustCube(4)
	type edge struct{ a, b topo.NodeID }
	var links []edge
	for a := 0; a < c.Nodes(); a++ {
		for d := 0; d < c.Dim(); d++ {
			b := c.Neighbor(topo.NodeID(a), d)
			if topo.NodeID(a) < b {
				links = append(links, edge{topo.NodeID(a), b})
			}
		}
	}
	if len(links) != 32 {
		t.Fatalf("links = %d", len(links))
	}
	count := 0
	for i := 0; i < len(links); i++ {
		for j := i + 1; j < len(links); j++ {
			count++
			s := faults.NewSet(c)
			if err := s.FailLink(links[i].a, links[i].b); err != nil {
				t.Fatal(err)
			}
			if err := s.FailLink(links[j].a, links[j].b); err != nil {
				t.Fatal(err)
			}
			as := Compute(s, Options{})
			if err := as.Verify(); err != nil {
				t.Fatalf("links %d,%d: %v", i, j, err)
			}
			// N2 membership is exactly the endpoints of the two links.
			n2 := map[topo.NodeID]bool{
				links[i].a: true, links[i].b: true,
				links[j].a: true, links[j].b: true,
			}
			for a := 0; a < c.Nodes(); a++ {
				id := topo.NodeID(a)
				if n2[id] {
					if as.Level(id) != 0 {
						t.Fatalf("N2 node %s public %d", c.Format(id), as.Level(id))
					}
					if as.OwnLevel(id) < 1 {
						t.Fatalf("N2 node %s own %d", c.Format(id), as.OwnLevel(id))
					}
				} else if as.Level(id) != as.OwnLevel(id) {
					t.Fatalf("N1 node %s views differ", c.Format(id))
				}
			}
			rt := NewRouter(as, nil)
			for src := 0; src < c.Nodes(); src += 3 {
				for dst := 0; dst < c.Nodes(); dst++ {
					r := rt.Unicast(topo.NodeID(src), topo.NodeID(dst))
					if r.Outcome == Failure {
						continue
					}
					for k := 1; k < len(r.Path); k++ {
						if s.LinkFaulty(r.Path[k-1], r.Path[k]) {
							t.Fatalf("route crosses dead link (links %d,%d)", i, j)
						}
					}
				}
			}
		}
	}
	if count != 496 {
		t.Errorf("enumerated %d link pairs, want 496", count)
	}
}

func TestExhaustiveMixedNodeAndLinkQ3(t *testing.T) {
	// Q3: every single faulty link combined with every single faulty
	// node (12 x 8 = 96 minus incident cases): EGS + routing contracts
	// over all pairs.
	c := topo.MustCube(3)
	for a := 0; a < c.Nodes(); a++ {
		for d := 0; d < c.Dim(); d++ {
			b := c.Neighbor(topo.NodeID(a), d)
			if topo.NodeID(a) > b {
				continue
			}
			for f := 0; f < c.Nodes(); f++ {
				s := faults.NewSet(c)
				if err := s.FailLink(topo.NodeID(a), b); err != nil {
					t.Fatal(err)
				}
				s.FailNode(topo.NodeID(f))
				as := Compute(s, Options{})
				if err := as.Verify(); err != nil {
					t.Fatalf("link (%d,%d) node %d: %v", a, b, f, err)
				}
				rt := NewRouter(as, nil)
				for src := 0; src < c.Nodes(); src++ {
					for dst := 0; dst < c.Nodes(); dst++ {
						sid, did := topo.NodeID(src), topo.NodeID(dst)
						r := rt.Unicast(sid, did)
						if r.Outcome == Failure {
							if r.Err != nil && !s.NodeFaulty(sid) && c.Contains(sid) {
								t.Fatalf("transport error from healthy source: %v", r.Err)
							}
							continue
						}
						for k := 1; k < len(r.Path); k++ {
							if s.LinkFaulty(r.Path[k-1], r.Path[k]) {
								t.Fatal("route crosses dead link")
							}
						}
					}
				}
			}
		}
	}
}
