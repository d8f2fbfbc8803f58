package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topo"
	"repro/internal/wire"
)

// fingerprint is everything a seed decides about a workload's inputs.
type fingerprint struct {
	faults   []topo.NodeID
	schedule int
	events   []string
	pairs    []wire.Pair
}

func fingerprintOf(t *testing.T, w workload, seed uint64) fingerprint {
	t.Helper()
	in, err := makeInputs(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprint{faults: in.initial.FaultyNodes(), schedule: len(in.schedule)}
	for _, ev := range in.schedule[:200] {
		fp.events = append(fp.events, ev.String())
	}
	fp.pairs = in.pairs(3).fill(make([]wire.Pair, 500))
	return fp
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := fingerprintOf(t, w, 7), fingerprintOf(t, w, 7)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("the same seed gave different inputs")
			}
			c := fingerprintOf(t, w, 8)
			if w.faults > 0 && reflect.DeepEqual(a.faults, c.faults) {
				t.Error("another seed gave the same fault set")
			}
			if reflect.DeepEqual(a.events, c.events) {
				t.Error("another seed gave the same delta schedule")
			}
			if reflect.DeepEqual(a.pairs, c.pairs) {
				t.Error("another seed gave the same pair stream")
			}
			if len(a.faults) != w.faults {
				t.Errorf("%d boot faults, want %d", len(a.faults), w.faults)
			}
		})
	}
}

// TestScheduleRollsHealthyNodes pins the delta schedule's shape: it
// never touches a boot fault and holds at most rollWidth nodes down.
func TestScheduleRollsHealthyNodes(t *testing.T) {
	w, _ := workloadByName("unicast-q10")
	in, err := makeInputs(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	set := in.initial.Clone()
	for i, ev := range in.schedule {
		if in.initial.NodeFaulty(ev.A) {
			t.Fatalf("event %d touches boot fault %v", i, ev)
		}
		if err := set.Apply(ev); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if extra := set.NodeFaults() - w.faults; extra > rollWidth {
			t.Fatalf("event %d: %d extra nodes down", i, extra)
		}
	}
}

// referenceReplies answers n pairs of a stream with the reference
// router, as a correct server would.
func referenceReplies(in *inputs, n int) []reply {
	as := core.Compute(in.initial.Clone(), core.Options{})
	rt := core.NewRouter(as, core.LowestDim)
	gen := in.initial.Generation()
	var out []reply
	for _, q := range in.pairs(1).fill(make([]wire.Pair, n)) {
		want, _, _ := expectInfo(rt, q.Src, q.Dst)
		out = append(out, reply{src: q.Src, dst: q.Dst, info: want, lo: gen, gen: gen})
	}
	return out
}

func TestVerifyRejectsCorruptReply(t *testing.T) {
	w, _ := workloadByName("unicast-q10")
	in, err := makeInputs(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	good := referenceReplies(in, 2000)
	if _, err := verify(in, nil, append([]reply(nil), good...), nil); err != nil {
		t.Fatalf("correct replies rejected: %v", err)
	}
	corrupt := map[string]func(*wire.RouteInfo){
		"hops":      func(r *wire.RouteInfo) { r.Hops++ },
		"condition": func(r *wire.RouteInfo) { r.Cond ^= 1 },
		"outcome":   func(r *wire.RouteInfo) { r.Outcome = (r.Outcome + 1) % 3 },
		"hamming":   func(r *wire.RouteInfo) { r.Hamming++ },
	}
	for name, f := range corrupt {
		bad := append([]reply(nil), good...)
		f(&bad[len(bad)/2].info)
		if _, err := verify(in, nil, bad, nil); err == nil {
			t.Errorf("a reply with a corrupted %s passed verification", name)
		}
	}
	stale := append([]reply(nil), good...)
	stale[0].gen++
	if _, err := verify(in, nil, stale, nil); err == nil {
		t.Error("a reply from a generation never published passed verification")
	}
}

// TestLeastSteal pins how a figure is read off a phase's windows: the
// steal fit at the least steal seen, never past the windows.
func TestLeastSteal(t *testing.T) {
	steal := []float64{9, 4, 12, 6, 20}
	v := make([]float64, len(steal))
	for i, s := range steal {
		v[i] = 100 - 2*s
	}
	v[4] = 0 // one wild window moves neither the slope nor the level
	if got := leastSteal(steal, v); got != 92 {
		t.Errorf("linear windows read %v at the least steal, want 92", got)
	}
	if got := leastSteal([]float64{3, 3, 3}, []float64{5, 1, 7}); got != 5 {
		t.Errorf("windows at one steal read %v, want their median 5", got)
	}
	if got := leastSteal(nil, nil); got != 0 {
		t.Errorf("no windows read %v, want 0", got)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests check against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestTinyRunEachWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots slserve")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	bin, err := buildServer(ctx, root, out)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			cfg := config{root: root, out: out, w: w, seed: 9, seconds: 300 * time.Millisecond, trace: traced,
				boots: 1, minDeltas: 20, layerN: 256, layerDeltas: 8}
			res, err := runWorkload(cfg, bin)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.verified == 0 {
				t.Errorf("%s trace=%v: %d failed, %d verified", w.name, traced, res.failed, res.verified)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, traced, len(res.metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
