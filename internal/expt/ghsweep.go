package expt

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The generalized-hypercube backend: the Section 4.2 claims measured
// through the same generic core and distributed engine the binary
// experiments use. "The algorithms for the regular hypercube can be
// directly applied with a minor modification" — here the modification
// is only the topology value handed to the stack.

// ghShapes are the mixed-radix shapes the GH sweeps cover, dimension 0
// first (GH(2x3x2) is the paper's Fig. 5 shape).
var ghShapes = [][]int{
	{2, 3, 2},
	{3, 3, 3},
	{4, 3, 2, 2},
}

// GHSweep (E15) runs the unicast guarantee sweep on generalized
// hypercubes: uniform random faults, random healthy pairs, Definition 4
// levels from the generic core. Optimal outcomes are cross-checked
// against the ground-truth optimal-path oracle — an Optimal verdict
// with no surviving optimal path would be a routing soundness bug, so
// the mismatch column must stay 0.
func GHSweep(cfg Config) *Table {
	cfg = cfg.withDefaults(200)
	t := &Table{
		ID:     "E15",
		Title:  "Section 4.2 — safety-level unicasting on generalized hypercubes",
		Header: []string{"shape", "faults", "attempts", "failures", "optimal %", "suboptimal %", "avg rounds", "oracle mismatches"},
	}
	rng := stats.NewRNG(cfg.Seed + 15)
	for _, radix := range ghShapes {
		m := topo.MustMixed(radix...)
		for _, f := range []int{m.Dim() - 1, m.Dim() + 1} {
			attempts, failures, optimal, suboptimal, mismatches := 0, 0, 0, 0, 0
			var rounds stats.Accumulator
			for trial := 0; trial < cfg.Trials; trial++ {
				s := faults.NewSet(m)
				if err := faults.InjectUniform(s, rng, f); err != nil {
					panic(err)
				}
				as := core.Compute(s, core.Options{})
				rounds.Add(float64(as.Rounds()))
				rt := core.NewRouter(as, nil)
				for pair := 0; pair < 10; pair++ {
					src := topo.NodeID(rng.Intn(m.Nodes()))
					dst := topo.NodeID(rng.Intn(m.Nodes()))
					if s.NodeFaulty(src) || s.NodeFaulty(dst) || src == dst {
						continue
					}
					attempts++
					r := rt.Unicast(src, dst)
					switch r.Outcome {
					case core.Optimal:
						optimal++
						if !faults.HasOptimalPath(s, src, dst) {
							mismatches++
						}
					case core.Suboptimal:
						suboptimal++
					default:
						failures++
					}
				}
			}
			t.AddRow(m.String(), f, attempts, failures,
				pct(optimal, attempts), pct(suboptimal, attempts), rounds.Mean(), mismatches)
		}
	}
	t.Note("%d trials per row, 10 random pairs each, seed %d", cfg.Trials, cfg.Seed)
	t.Note("oracle mismatches counts Optimal verdicts with no surviving optimal path; must be 0")
	return t
}

// GHDistributed (E15b) runs the message-passing engine on generalized
// hypercubes and compares the distributed fixpoint with the sequential
// one: every trial must agree level-for-level, and the per-trial message
// count is reported against the deg*(n-1) full-exchange bound (each of
// the deg sends per node per round, for up to n-1 rounds).
func GHDistributed(cfg Config) *Table {
	cfg = cfg.withDefaults(30)
	t := &Table{
		ID:     "E15b",
		Title:  "Distributed GS on generalized hypercubes — fixpoint agreement and message cost",
		Header: []string{"shape", "faults", "trials", "level mismatches", "avg rounds", "avg messages", "bound"},
	}
	rng := stats.NewRNG(cfg.Seed + 16)
	for _, radix := range ghShapes {
		m := topo.MustMixed(radix...)
		f := m.Dim()
		mismatches := 0
		var rounds, msgs stats.Accumulator
		for trial := 0; trial < cfg.Trials; trial++ {
			s := faults.NewSet(m)
			if err := faults.InjectUniform(s, rng, f); err != nil {
				panic(err)
			}
			e := simnet.New(s)
			e.RunGS(0)
			want := core.Compute(s, core.Options{})
			for a, got := range e.Levels() {
				id := topo.NodeID(a)
				if !s.NodeFaulty(id) && got != want.Level(id) {
					mismatches++
				}
			}
			rounds.Add(float64(e.StableRound()))
			msgs.Add(float64(e.MessagesSent()))
			e.Close()
		}
		bound := (m.Nodes() - f) * m.Degree() * (m.Dim() - 1)
		t.AddRow(m.String(), f, cfg.Trials, mismatches, rounds.Mean(), msgs.Mean(), bound)
	}
	t.Note("%d trials per shape, seed %d; level mismatches must be 0", cfg.Trials, cfg.Seed)
	return t
}
