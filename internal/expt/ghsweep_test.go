package expt

import (
	"fmt"
	"testing"

	"repro/internal/faults"
)

// TestGHSweepGuarantees runs the generalized-hypercube sweep at test
// scale and checks the paper's hard claims: no routing failure below n
// faults, and never an Optimal verdict without a surviving optimal path.
func TestGHSweepGuarantees(t *testing.T) {
	tab := GHSweep(Config{Trials: 15})
	if len(tab.Rows) != 2*len(ghShapes) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 2*len(ghShapes))
	}
	for i, row := range tab.Rows {
		if row[7] != "0" {
			t.Errorf("row %d (%s, %s faults): %s oracle mismatches", i, row[0], row[1], row[7])
		}
		// Even rows use n-1 faults — below the Theorem 3 threshold, so
		// failures must be exactly 0.
		if i%2 == 0 && row[3] != "0" {
			t.Errorf("row %d (%s, %s faults): %s failures below n faults", i, row[0], row[1], row[3])
		}
	}
}

// TestGHDistributedAgreement checks the distributed-vs-sequential GS
// fixpoint agreement column across every GH shape.
func TestGHDistributedAgreement(t *testing.T) {
	tab := GHDistributed(Config{Trials: 5})
	if len(tab.Rows) != len(ghShapes) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(ghShapes))
	}
	for i, row := range tab.Rows {
		if row[3] != "0" {
			t.Errorf("row %d (%s): %s level mismatches", i, row[0], row[3])
		}
	}
}

// TestGHFig5SetMatchesGraph pins Fig5Set to the figure: GH(2x3x2)
// with exactly the faults 011, 100, 111, 121, still connected (its
// levels are pinned by TestFig5Levels).
func TestGHFig5SetMatchesGraph(t *testing.T) {
	m, s := Fig5Set()
	var got []string
	for _, a := range s.FaultyNodes() {
		got = append(got, m.Format(a))
	}
	if m.String() != "GH(2x3x2)" || fmt.Sprint(got) != "[011 100 111 121]" || !faults.Connected(s) {
		t.Errorf("Fig5Set = %v with faults %v (connected %v)", m, got, faults.Connected(s))
	}
}
