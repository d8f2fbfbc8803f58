package main

import (
	"fmt"
	"strings"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/wire"
)

// workload is one named traffic mix against one seeded fault set. Every
// workload runs the same four surfaces (wire, coalesced, http, fault
// deltas) so that every end-to-end metric exists on every workload; what
// differs is the cube, the fault density and the shape of the main wire
// phase.
type workload struct {
	name string
	dim  int
	// faults is the number of uniform node faults the server boots with.
	faults int
	// batch is the pair count of one main-phase OpBatch frame; 0 sends
	// single OpUnicast frames.
	batch int
	// callers is the closed-loop caller count of the main wire phase.
	callers int
}

// The workloads and why each exists. batch-q20 is router-bound: about
// ten hops per route, a level table larger than L2, and the frame cost
// spread over 64 routes. unicast-q10 is transport-bound: the router is a
// few percent of a request and every branch of the paper's router (C1,
// C2, C3, source-detected failure) runs.
var workloads = []workload{
	{name: "batch-q20", dim: 20, faults: 4096, batch: 64, callers: 2},
	{name: "unicast-q10", dim: 10, faults: 64, callers: 16},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Labels of the independent seeded streams derived from one seed.
const (
	streamFaults   = 1
	streamSchedule = 2
	streamPairs    = 100 // + caller index
)

// rollWidth bounds how many nodes the delta schedule holds down at once.
const rollWidth = 16

// inputs are everything a run sends, generated from the workload seed.
// The server receives only these: the fault list on its command line,
// then pairs and deltas over its sockets.
type inputs struct {
	w        workload
	seed     uint64
	cube     *topo.Cube
	initial  *faults.Set
	healthy  []topo.NodeID // nodes healthy at boot, ascending
	schedule []faults.ChurnEvent
}

func rngFor(seed, label uint64) *stats.RNG {
	return stats.NewRNG(seed).Split(label)
}

// makeInputs builds the fault set and the delta schedule for (w, seed).
// The schedule is the repository's seeded rolling profile (RollWidth 16)
// restricted to nodes healthy at boot, so a static fault set stays
// faulty and at most rollWidth extra nodes are ever down.
func makeInputs(w workload, seed uint64) (*inputs, error) {
	cube, err := topo.NewCube(w.dim)
	if err != nil {
		return nil, err
	}
	set := faults.NewSet(cube)
	if err := faults.InjectUniform(set, rngFor(seed, streamFaults), w.faults); err != nil {
		return nil, err
	}
	in := &inputs{w: w, seed: seed, cube: cube, initial: set}
	for a := 0; a < cube.Nodes(); a++ {
		if !set.NodeFaulty(topo.NodeID(a)) {
			in.healthy = append(in.healthy, topo.NodeID(a))
		}
	}
	events, err := faults.ScenarioSchedule(cube, faults.ScenarioRolling,
		rngFor(seed, streamSchedule).Uint64(), faults.ScenarioOptions{Waves: 1, RollWidth: rollWidth})
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		if !set.NodeFaulty(ev.A) {
			in.schedule = append(in.schedule, ev)
		}
	}
	return in, nil
}

// faultList renders the boot fault set as slserve's -faults value.
func (in *inputs) faultList() string {
	var b strings.Builder
	for i, a := range in.initial.FaultyNodes() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(in.cube.Format(a))
	}
	return b.String()
}

// pairGen is one caller's seeded stream of uniform source/destination
// pairs over the nodes healthy at boot, never src == dst.
type pairGen struct {
	rng     *stats.RNG
	healthy []topo.NodeID
}

func (in *inputs) pairs(stream uint64) *pairGen {
	return &pairGen{rng: rngFor(in.seed, streamPairs+stream), healthy: in.healthy}
}

func (g *pairGen) next() wire.Pair {
	n := len(g.healthy)
	s := g.rng.Intn(n)
	d := g.rng.Intn(n - 1)
	if d >= s {
		d++
	}
	return wire.Pair{Src: uint32(g.healthy[s]), Dst: uint32(g.healthy[d])}
}

func (g *pairGen) fill(buf []wire.Pair) []wire.Pair {
	for i := range buf {
		buf[i] = g.next()
	}
	return buf
}
