package core

import (
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// fuzzedSets builds a deterministic spread of fault sets across binary
// and generalized topologies: node faults alone, link faults alone, and
// both (EGS), at light and heavy loads.
func fuzzedSets(tb testing.TB) []*faults.Set {
	tb.Helper()
	var sets []*faults.Set
	shapes := []topo.Topology{
		topo.MustCube(4),
		topo.MustCube(6),
		topo.MustCube(8),
		topo.MustMixed(2, 3, 2),
		topo.MustMixed(3, 3, 3),
		topo.MustMixed(4, 3, 2, 2),
	}
	rng := stats.NewRNG(42)
	for _, t := range shapes {
		for _, load := range []int{1, t.Dim(), 2 * t.Dim()} {
			s := faults.NewSet(t)
			if err := faults.InjectUniform(s, rng, load); err != nil {
				tb.Fatal(err)
			}
			sets = append(sets, s)

			if _, ok := t.(*topo.Cube); ok {
				sl := faults.NewSet(t)
				if err := faults.InjectUniformLinks(sl, rng, load); err != nil {
					tb.Fatal(err)
				}
				sets = append(sets, sl)

				both := faults.NewSet(t)
				if err := faults.InjectUniform(both, rng, load/2+1); err != nil {
					tb.Fatal(err)
				}
				if err := faults.InjectUniformLinks(both, rng, load/2+1); err != nil {
					tb.Fatal(err)
				}
				sets = append(sets, both)
			}
		}
	}
	return sets
}

// TestParallelMatchesSequential is the determinism contract of the
// worker-pool GS sweep: for every fuzzed fault set and worker count the
// parallel computation must be bit-identical to the sequential one —
// levels, own levels, rounds, per-round deltas and per-node
// stabilization rounds. Run under -race this also proves the sweep's
// chunk partitioning never writes a cell twice.
func TestParallelMatchesSequential(t *testing.T) {
	for si, set := range fuzzedSets(t) {
		seq := Compute(set, Options{})
		for _, workers := range []int{2, 3, 8, -1} {
			name := fmt.Sprintf("set%02d/workers=%d", si, workers)
			par := Compute(set, Options{Workers: workers})
			if par.Rounds() != seq.Rounds() {
				t.Errorf("%s: rounds %d != %d", name, par.Rounds(), seq.Rounds())
			}
			sd, pd := seq.Deltas(), par.Deltas()
			if len(sd) != len(pd) {
				t.Errorf("%s: deltas %v != %v", name, pd, sd)
			} else {
				for r := range sd {
					if sd[r] != pd[r] {
						t.Errorf("%s: round %d delta %d != %d", name, r+1, pd[r], sd[r])
					}
				}
			}
			for a := 0; a < set.Topology().Nodes(); a++ {
				id := topo.NodeID(a)
				if par.Level(id) != seq.Level(id) || par.OwnLevel(id) != seq.OwnLevel(id) {
					t.Fatalf("%s: node %d level %d/%d != %d/%d", name, a,
						par.Level(id), par.OwnLevel(id), seq.Level(id), seq.OwnLevel(id))
				}
				if par.StableRound(id) != seq.StableRound(id) {
					t.Fatalf("%s: node %d stable round %d != %d", name, a,
						par.StableRound(id), seq.StableRound(id))
				}
			}
			if err := par.Verify(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// benchSet builds the benchmark workload: a 12-cube with 2n faults.
func benchSet(tb testing.TB) *faults.Set {
	c := topo.MustCube(12)
	s := faults.NewSet(c)
	if err := faults.InjectUniform(s, stats.NewRNG(7), 24); err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkComputeSequential is the baseline the parallel sweep is
// measured against (BENCH_2.json).
func BenchmarkComputeSequential(b *testing.B) {
	s := benchSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(s, Options{})
	}
}

// BenchmarkComputeParallel measures the worker-pool sweep at GOMAXPROCS
// workers on the same workload.
func BenchmarkComputeParallel(b *testing.B) {
	s := benchSet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(s, Options{Workers: -1})
	}
}

// BenchmarkComputeGH runs the same pair on a generalized hypercube,
// GH(4x4x4x4x4) (1,024 nodes, 10 faults, seed 12): BENCH_2.json's
// mixed-radix cells.
func BenchmarkComputeGH(b *testing.B) {
	s := faults.NewSet(topo.MustMixed(4, 4, 4, 4, 4))
	if err := faults.InjectUniform(s, stats.NewRNG(12), 10); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		workers int
	}{{"sequential", 0}, {"workers=gomaxprocs", -1}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Compute(s, Options{Workers: c.workers})
			}
		})
	}
}
