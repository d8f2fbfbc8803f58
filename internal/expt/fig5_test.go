package expt

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topo"
)

// The Section 4.2 walkthrough on Fig5Set (the fault set is derived from
// the figure's stated facts; see Fig5Set and EXPERIMENTS.md E9 for the
// two paper parentheticals no fault set can satisfy).

// fig5 returns the Fig. 5 scenario with a router over its levels.
func fig5() (*topo.Mixed, *faults.Set, *core.Router) {
	m, s := Fig5Set()
	return m, s, core.NewRouter(core.Compute(s, core.Options{}), nil)
}

func TestFig5Levels(t *testing.T) {
	m, _, rt := fig5()
	as := rt.Assignment()
	want := map[string]int{
		"000": 3, "001": 3, "010": 3, "020": 3,
		"021": 1, "101": 1, "110": 1, "120": 1,
		"011": 0, "100": 0, "111": 0, "121": 0,
	}
	for addr, lv := range want {
		if got := as.Level(m.MustParse(addr)); got != lv {
			t.Errorf("S(%s) = %d, want %d", addr, got, lv)
		}
	}
	// "There are four nodes whose safety levels are 3, i.e., safe."
	if safe := as.SafeSet(); len(safe) != 4 {
		t.Errorf("safe set size = %d, want 4", len(safe))
	}
	if err := as.Verify(); err != nil {
		t.Error(err)
	}
}

func TestFig5SafeNeighborProperty(t *testing.T) {
	// "Because each unsafe but nonfaulty node has a safe neighbor,
	// routing from any of these nodes is at least suboptimal."
	m, s, rt := fig5()
	as := rt.Assignment()
	for a := 0; a < m.Nodes(); a++ {
		id := topo.NodeID(a)
		if s.NodeFaulty(id) || as.Safe(id) {
			continue
		}
		has := false
		for d := 0; d < m.Dim(); d++ {
			for _, b := range m.Siblings(id, d, nil) {
				has = has || as.Safe(b)
			}
		}
		if !has {
			t.Errorf("unsafe node %s has no safe neighbor", m.Format(id))
		}
	}
}

func TestFig5Route(t *testing.T) {
	m, _, rt := fig5()
	r := rt.Unicast(m.MustParse("010"), m.MustParse("101"))
	// Source 010 is safe, so C1 admits it — "routing from any of these
	// four nodes [is] optimal".
	if r.Outcome != core.Optimal || r.Condition != core.CondC1 || r.Len() != 3 || r.Hamming != 3 {
		t.Fatalf("route = %v via %v, %d hops for distance %d", r.Outcome, r.Condition, r.Len(), r.Hamming)
	}
	if got := r.Path.FormatWith(m); got != "010 -> 000 -> 001 -> 101" {
		t.Errorf("route = %s, want 010 -> 000 -> 001 -> 101", got)
	}
}

func TestFig5RoutingFromAllSafeNodes(t *testing.T) {
	// Every unicast from a safe node to any nonfaulty node is optimal.
	m, s, rt := fig5()
	for _, src := range rt.Assignment().SafeSet() {
		for d := 0; d < m.Nodes(); d++ {
			if did := topo.NodeID(d); !s.NodeFaulty(did) {
				if r := rt.Unicast(src, did); r.Outcome != core.Optimal || r.Err != nil || r.Len() != m.Distance(src, did) {
					t.Errorf("%s -> %s: %v in %d hops (%v)", m.Format(src), m.Format(did), r.Outcome, r.Len(), r.Err)
				}
			}
		}
	}
}

func TestGHRouterRejectsBadInput(t *testing.T) {
	m, _, rt := fig5()
	if r := rt.Unicast(m.MustParse("011"), 0); r.Outcome != core.Failure || r.Err == nil {
		t.Error("faulty source should fail")
	}
	if r := rt.Unicast(99, 0); r.Outcome != core.Failure || r.Err == nil {
		t.Error("out-of-graph source should fail")
	}
	if r := rt.Unicast(0, 0); r.Outcome != core.Optimal || r.Len() != 0 {
		t.Error("self unicast should be trivially optimal")
	}
}

func TestGHUnicastToFaultyNeighbor(t *testing.T) {
	// Distance-1 delivery reaches even a faulty destination (Theorem 2
	// base case carries over).
	m, _, rt := fig5()
	if r := rt.Unicast(m.MustParse("010"), m.MustParse("011")); r.Outcome != core.Optimal || r.Len() != 1 {
		t.Errorf("unicast to faulty neighbor: %v len %d", r.Outcome, r.Len())
	}
}

func TestHasOptimalPathGH(t *testing.T) {
	m, s := Fig5Set()
	for _, tc := range []struct {
		src, dst string
		want     bool
	}{
		{"010", "101", true},  // through 000, 001
		{"011", "101", false}, // faulty endpoints have none
		{"000", "000", true},
	} {
		if got := faults.HasOptimalPath(s, m.MustParse(tc.src), m.MustParse(tc.dst)); got != tc.want {
			t.Errorf("HasOptimalPath(%s, %s) = %v, want %v", tc.src, tc.dst, got, tc.want)
		}
	}
}
