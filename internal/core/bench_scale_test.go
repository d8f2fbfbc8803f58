package core

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Scale benchmarks for the flat SoA core. The GS and Repair ones are
// part of the CI bench-hot set (their names match the gate's
// Benchmark(GS|Repair) regex), so regressions in ns/op or allocs/op on
// the large-cube paths fail the bench-gate job. They are also the rows
// of the BENCH_3 and BENCH_7 scenarios in the repo-root bench ledger
// (bench_ledger_test.go).

// BenchmarkGSColdQ16 runs a cold GLOBAL_STATUS sweep over Q16 (65,536
// nodes, 40 faults) with the parallel sweep at GOMAXPROCS — the
// serving engine's cold-start path on a large cube.
func BenchmarkGSColdQ16(b *testing.B) {
	c := topo.MustCube(16)
	s := faults.NewSet(c)
	if err := faults.InjectUniform(s, stats.NewRNG(7), 40); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(s, Options{Workers: -1})
	}
}

// BenchmarkRepairQ16 measures single-event incremental repair on Q16:
// fail or recover one node, replay the journal delta through
// RepairLevels. The dominant per-op cost should be the retained level
// table of the new assignment (one byte per node), not the repair
// working state, which lives in the pooled scratch.
func BenchmarkRepairQ16(b *testing.B) {
	c := topo.MustCube(16)
	set := faults.NewSet(c)
	if err := faults.InjectUniform(set, stats.NewRNG(7), 40); err != nil {
		b.Fatal(err)
	}
	as := Compute(set, Options{})
	gen := set.Generation()
	victim := topo.NodeID(31337)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if i%2 == 0 {
			err = set.FailNode(victim)
		} else {
			err = set.RecoverNode(victim)
		}
		if err != nil {
			b.Fatal(err)
		}
		delta, ok := set.Since(gen)
		if !ok {
			b.Fatal("journal gap")
		}
		rep, ok := RepairLevels(as, set, delta, Options{})
		if !ok {
			b.Fatal("repair refused")
		}
		as, gen = rep, set.Generation()
	}
}

// BenchmarkRepairChurnReplayQ10 replays the BENCH_3/BENCH_7 churn
// schedule once per op, maintaining the table by incremental repair.
// Its bytes/op is the number BENCH_7.json's check holds against
// BENCH_3's map-based core.
func BenchmarkRepairChurnReplayQ10(b *testing.B) { benchChurnReplayQ10(b, true) }

// BenchmarkComputeChurnReplayQ10 replays the same schedule with a cold
// recomputation after every event: the baseline BENCH_3.json holds
// incremental repair against.
func BenchmarkComputeChurnReplayQ10(b *testing.B) { benchChurnReplayQ10(b, false) }

// benchChurnReplayQ10 replays Q10, 40 fail/recover events with link
// faults, seed 3, from a fresh fault set per op, and reports the
// NODE_STATUS evaluations spent keeping the table current (the initial
// cold fill excluded) as evals/op.
func benchChurnReplayQ10(b *testing.B, repair bool) {
	tp := topo.MustCube(10)
	events := faults.ChurnSchedule(tp, 3, 40, faults.ChurnOptions{Links: true})
	evals := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := faults.NewSet(tp)
		prev := Compute(set, Options{})
		gen := set.Generation()
		for _, ev := range events {
			if err := set.Apply(ev); err != nil {
				b.Fatal(err)
			}
			if repair {
				delta, ok := set.Since(gen)
				if !ok {
					b.Fatal("journal gap")
				}
				as, ok := RepairLevels(prev, set, delta, Options{})
				if !ok {
					b.Fatal("repair refused")
				}
				prev, gen = as, set.Generation()
			} else {
				prev = Compute(set, Options{})
			}
			evals += prev.Evals()
		}
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
}
