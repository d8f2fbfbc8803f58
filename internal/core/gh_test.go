package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Section 4.2 on generalized hypercubes: Definition 4 levels and the
// unchanged C1/C2/C3 router over topo.Mixed, checked against the
// lattice oracles in package faults.

// ghSet returns a fault-free set over GH with the given radixes
// (dimension 0 first).
func ghSet(radix ...int) *faults.Set { return faults.NewSet(topo.MustMixed(radix...)) }

func TestBinaryRadixesReduceToHypercube(t *testing.T) {
	// GH(2x2x...x2) must agree with the binary cube implementation on
	// levels for identical fault sets.
	rng := stats.NewRNG(4242)
	for n := 2; n <= 6; n++ {
		radix := make([]int, n)
		for i := range radix {
			radix[i] = 2
		}
		c := topo.MustCube(n)
		for trial := 0; trial < 20; trial++ {
			g := ghSet(radix...)
			s := faults.NewSet(c)
			faults.InjectUniform(s, rng, rng.Intn(c.Nodes()/2))
			// NodeID encodings coincide: bit i == coordinate i.
			if err := g.FailNodes(s.FaultyNodes()...); err != nil {
				t.Fatal(err)
			}
			want, got := Compute(s, Options{}), Compute(g, Options{})
			for a := 0; a < c.Nodes(); a++ {
				if id := topo.NodeID(a); got.Level(id) != want.Level(id) {
					t.Fatalf("n=%d trial %d: GH level %d != cube level %d at node %d (faults %s)",
						n, trial, got.Level(id), want.Level(id), a, s)
				}
			}
			if got.Rounds() != want.Rounds() {
				t.Errorf("n=%d trial %d: GH rounds %d != cube rounds %d",
					n, trial, got.Rounds(), want.Rounds())
			}
		}
	}
}

func TestFaultFreeGH(t *testing.T) {
	s := ghSet(3, 4, 2)
	as := Compute(s, Options{})
	if as.Rounds() != 0 || len(as.SafeSet()) != s.Topology().Nodes() {
		t.Errorf("fault-free: rounds %d, %d safe nodes", as.Rounds(), len(as.SafeSet()))
	}
	r := NewRouter(as, nil).Unicast(0, topo.NodeID(s.Topology().Nodes()-1))
	if r.Outcome != Optimal || r.Len() != 3 {
		t.Errorf("fault-free route: %v len %d", r.Outcome, r.Len())
	}
}

// checkTheorem2Prime asserts Theorem 2' on s against the lattice DP
// oracle: a k-safe node has an optimal path to every nonfaulty node
// within k differing coordinates.
func checkTheorem2Prime(t *testing.T, s *faults.Set, as *Assignment) {
	t.Helper()
	m := s.Topology()
	for src := 0; src < m.Nodes(); src++ {
		sid := topo.NodeID(src)
		if s.NodeFaulty(sid) {
			continue
		}
		k := as.Level(sid)
		for dst := 0; dst < m.Nodes(); dst++ {
			did := topo.NodeID(dst)
			if h := m.Distance(sid, did); h >= 1 && h <= k && !s.NodeFaulty(did) && !faults.HasOptimalPath(s, sid, did) {
				t.Fatalf("Theorem 2' violated: S(%s)=%d, no optimal path to %s (faults %s)",
					m.Format(sid), k, m.Format(did), s)
			}
		}
	}
}

func TestTheorem2PrimeOptimalPaths(t *testing.T) {
	// Random GH(3x3x2x2) instances.
	rng := stats.NewRNG(909)
	for trial := 0; trial < 40; trial++ {
		s := ghSet(3, 3, 2, 2)
		if err := faults.InjectUniform(s, rng, rng.Intn(8)); err != nil {
			t.Fatal(err)
		}
		as := Compute(s, Options{})
		if err := as.Verify(); err != nil {
			t.Fatal(err)
		}
		checkTheorem2Prime(t, s, as)
	}
}

func TestGHRoutingGuarantees(t *testing.T) {
	// Admitted optimal unicasts deliver in exactly Distance hops along
	// nonfaulty intermediate nodes; admitted suboptimal in Distance+2.
	rng := stats.NewRNG(31415)
	for trial := 0; trial < 50; trial++ {
		s := ghSet(2, 3, 2, 3)
		nodes := s.Topology().Nodes()
		if err := faults.InjectUniform(s, rng, rng.Intn(6)); err != nil {
			t.Fatal(err)
		}
		rt := NewRouter(Compute(s, Options{}), nil)
		for pair := 0; pair < 60; pair++ {
			src, dst := topo.NodeID(rng.Intn(nodes)), topo.NodeID(rng.Intn(nodes))
			if s.NodeFaulty(src) || s.NodeFaulty(dst) {
				continue
			}
			if r := rt.Unicast(src, dst); r.Outcome != Failure {
				checkDelivered(t, s, r)
			}
		}
	}
}

func TestInjectUniformGH(t *testing.T) {
	s := ghSet(3, 3, 3)
	rng := stats.NewRNG(5)
	if err := faults.InjectUniform(s, rng, 7); err != nil || s.NodeFaults() != 7 {
		t.Fatalf("faults = %d (%v)", s.NodeFaults(), err)
	}
	if err := faults.InjectUniform(s, rng, 100); err == nil {
		t.Error("overfull injection should fail")
	}
	if err := faults.InjectUniform(s, rng, -1); err == nil {
		t.Error("negative injection should fail")
	}
}

func TestGHRoundsBound(t *testing.T) {
	// The extended GS stabilizes within n-1 rounds (Section 4.2: "it
	// still requires a total of (n-1) steps").
	rng := stats.NewRNG(66)
	for trial := 0; trial < 30; trial++ {
		s := ghSet(3, 2, 4, 2)
		faults.InjectUniform(s, rng, rng.Intn(12))
		as := Compute(s, Options{})
		if n := s.Topology().Dim(); as.Rounds() > n-1 {
			t.Fatalf("rounds = %d > n-1 = %d", as.Rounds(), n-1)
		}
		if err := as.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExhaustiveGH232TwoFaults(t *testing.T) {
	// All C(12,2) = 66 two-fault sets of the paper's GH(2x3x2), every
	// source/destination pair. Two faults < n = 3 dimensions, so the
	// Property 2 analogue holds and no unicast may fail.
	count := 0
	forEachFaultSet(t, topo.MustMixed(2, 3, 2), 2, func(s *faults.Set) {
		count++
		m := s.Topology()
		as := Compute(s, Options{})
		if err := as.Verify(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if as.Rounds() > m.Dim()-1 {
			t.Fatalf("rounds %d > n-1", as.Rounds())
		}
		checkTheorem2Prime(t, s, as)
		rt := NewRouter(as, nil)
		for src := 0; src < m.Nodes(); src++ {
			for dst := 0; dst < m.Nodes(); dst++ {
				sid, did := topo.NodeID(src), topo.NodeID(dst)
				if s.NodeFaulty(sid) || s.NodeFaulty(did) {
					continue
				}
				r := rt.Unicast(sid, did)
				if r.Outcome == Failure {
					t.Fatalf("unicast %s -> %s failed with 2 faults in GH(2x3x2)",
						m.Format(sid), m.Format(did))
				}
				checkDelivered(t, s, r)
			}
		}
	})
	if count != 66 {
		t.Errorf("enumerated %d fault sets, want 66", count)
	}
}

func TestExhaustiveGH33UniquenessFromBelow(t *testing.T) {
	// Definition 4's fixpoint is unique (the Theorem 1 argument carries
	// over): for every fault set of size <= 3 in GH(3x3), iterating
	// from the all-zero initialization reaches the same levels as the
	// from-above computation.
	for k := 0; k <= 3; k++ {
		forEachFaultSet(t, topo.MustMixed(3, 3), k, func(s *faults.Set) {
			as := Compute(s, Options{})
			for a, below := range computeFromBelow(s) {
				if id := topo.NodeID(a); below != as.Level(id) {
					t.Fatalf("faults in %v: node %s from-below %d != from-above %d",
						s, s.Topology().Format(id), below, as.Level(id))
				}
			}
		})
	}
}

func TestExhaustiveGH222EqualsQ3(t *testing.T) {
	// GH(2x2x2) must agree with Q3 for every one of the 2^8 fault
	// subsets — an exhaustive version of the reduction property test.
	// Per-dimension min over a single sibling IS the sibling's level,
	// so Definition 4 == Definition 1 here.
	for mask := 0; mask < 256; mask++ {
		g, q := ghSet(2, 2, 2), faults.NewSet(topo.MustCube(3))
		for a := 0; a < 8; a++ {
			if mask&(1<<a) != 0 {
				g.FailNode(topo.NodeID(a))
				q.FailNode(topo.NodeID(a))
			}
		}
		got, want := Compute(g, Options{}), Compute(q, Options{})
		if err := got.Verify(); err != nil {
			t.Fatalf("mask %08b: %v", mask, err)
		}
		for a := 0; a < 8; a++ {
			if id := topo.NodeID(a); got.Level(id) != want.Level(id) {
				t.Fatalf("mask %08b: node %d GH level %d != Q3 level %d",
					mask, a, got.Level(id), want.Level(id))
			}
		}
	}
}

func TestGHComponentsAndDisconnectedDetection(t *testing.T) {
	// Isolate a node of GH(2x3x2) by failing all its neighbors (degree
	// 1 + 2 + 1 = 4): the graph disconnects, no node can be n-safe, and
	// every cross-partition unicast aborts at the source.
	s := ghSet(2, 3, 2)
	m := s.Topology()
	for d := 0; d < m.Dim(); d++ {
		if err := s.FailNodes(m.Siblings(0, d, nil)...); err != nil {
			t.Fatal(err)
		}
	}
	labels, count := faults.Components(s)
	if count != 2 || faults.Connected(s) {
		t.Fatalf("components = %d, want 2 (disconnected)", count)
	}
	as := Compute(s, Options{})
	if safe := as.SafeSet(); len(safe) != 0 {
		t.Errorf("%d n-safe nodes in a disconnected GH", len(safe))
	}
	rt := NewRouter(as, nil)
	for src := 0; src < m.Nodes(); src++ {
		for dst := 0; dst < m.Nodes(); dst++ {
			sid, did := topo.NodeID(src), topo.NodeID(dst)
			if s.NodeFaulty(sid) || s.NodeFaulty(did) || labels[sid] == labels[did] {
				continue
			}
			if r := rt.Unicast(sid, did); r.Outcome != Failure {
				t.Fatalf("cross-partition %s -> %s not aborted", m.Format(sid), m.Format(did))
			}
		}
	}
}

func TestGHComponentsFaultFree(t *testing.T) {
	s := ghSet(3, 2, 2)
	labels, count := faults.Components(s)
	if count != 1 || !faults.Connected(s) {
		t.Error("fault-free GH should be one component")
	}
	for _, l := range labels {
		if l != 0 {
			t.Error("labels should all be 0")
		}
	}
}
