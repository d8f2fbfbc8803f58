package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/topo"
	"repro/internal/wire"
)

// maxGenWindow bounds how many generations below the one a reply
// carries are tried. slserve stamps a reply with the generation current
// when the answer is encoded, which can be newer than the snapshot the
// route was computed on; the caller's own previous reply bounds it from
// below.
const maxGenWindow = 8

// genState is the reference state of one fault-set generation.
type genState struct {
	gen uint64
	as  *core.Assignment // detached: immutable
	rt  *core.Router
}

// expectInfo is what a correct server answers for (src, dst) on rt,
// checked against the paper's length rule: an admitted route travels H
// hops (C1, C2) or H+2 (C3), and a refused one none.
func expectInfo(rt *core.Router, src, dst uint32) (wire.RouteInfo, *core.Route, error) {
	r := rt.Unicast(topo.NodeID(src), topo.NodeID(dst))
	want := wire.RouteInfo{
		Outcome: uint8(r.Outcome),
		Cond:    uint8(r.Condition),
		Hamming: uint16(r.Hamming),
		Hops:    uint16(r.Len()),
	}
	switch r.Outcome {
	case core.Optimal:
		if r.Len() != r.Hamming {
			return want, r, fmt.Errorf("reference route %d->%d: %d hops for H=%d under %v", src, dst, r.Len(), r.Hamming, r.Condition)
		}
	case core.Suboptimal:
		if r.Len() != r.Hamming+2 {
			return want, r, fmt.Errorf("reference route %d->%d: %d hops for H=%d under C3", src, dst, r.Len(), r.Hamming)
		}
	}
	return want, r, nil
}

// checkReply checks one wire reply against one generation.
func checkReply(g *genState, p reply) error {
	want, _, err := expectInfo(g.rt, p.src, p.dst)
	if err != nil {
		return err
	}
	if p.info != want {
		return fmt.Errorf("route %d->%d at generation %d: got %+v, want %+v", p.src, p.dst, g.gen, p.info, want)
	}
	return nil
}

// checkHTTP checks one HTTP reply against one generation: the fields
// must match the reference route, the path must be legal under that
// generation's faults (oracle.CheckPath), join src to dst, equal the
// reference path and be H or H+2 hops long.
func checkHTTP(g *genState, p httpReply) error {
	want, r, err := expectInfo(g.rt, p.src, p.dst)
	if err != nil {
		return err
	}
	if p.outcome != r.Outcome.String() || p.cond != r.Condition.String() ||
		p.info.Hamming != want.Hamming || p.info.Hops != want.Hops {
		return fmt.Errorf("http route %d->%d at generation %d: got %s/%s H=%d hops=%d, want %s/%s H=%d hops=%d",
			p.src, p.dst, g.gen, p.outcome, p.cond, p.info.Hamming, p.info.Hops,
			r.Outcome, r.Condition, want.Hamming, want.Hops)
	}
	if r.Outcome == core.Failure {
		return nil
	}
	// The router delivers the last hop even to a faulty destination
	// (Theorem 2, j = 1), so the oracle sees the path up to the hop
	// before it, and that last hop on its own.
	set, n := g.as.Faults(), len(p.path)-1
	legal := p.path
	if set.NodeFaulty(topo.NodeID(p.dst)) && n > 0 {
		legal = p.path[:n]
		if !usableHop(p.path[n-1], p.path[n], set) {
			return fmt.Errorf("http route %d->%d at generation %d: last hop %d->%d unusable", p.src, p.dst, g.gen, p.path[n-1], p.path[n])
		}
	}
	if err := oracle.CheckPath(set, legal); err != nil {
		return fmt.Errorf("http route %d->%d at generation %d: %w", p.src, p.dst, g.gen, err)
	}
	if p.path[0] != topo.NodeID(p.src) || p.path[n] != topo.NodeID(p.dst) {
		return fmt.Errorf("http route %d->%d: path runs %d->%d", p.src, p.dst, p.path[0], p.path[n])
	}
	if n != r.Hamming && n != r.Hamming+2 {
		return fmt.Errorf("http route %d->%d: %d hops, want H=%d or H+2", p.src, p.dst, n, r.Hamming)
	}
	for i := range p.path {
		if p.path[i] != r.Path[i] {
			return fmt.Errorf("http route %d->%d: hop %d is %d, reference %d", p.src, p.dst, i, p.path[i], r.Path[i])
		}
	}
	return nil
}

// usableHop reports whether a and b are adjacent over a healthy link.
func usableHop(a, b topo.NodeID, set *faults.Set) bool {
	return set.Topology().Adjacent(a, b) && !set.LinkFaulty(a, b)
}

// verifier replays the boot fault set and the accepted deltas, keeping
// the reference state of the last few generations, and checks every
// reply against the generations its window allows.
type verifier struct {
	in     *inputs
	window []*genState // ascending generations, at most maxGenWindow+1
	wire   int         // replies checked
	http   int
}

// candidates returns the reference states a reply stamped gen with
// lower bound lo may have been computed on, newest first.
func (v *verifier) candidates(lo, gen uint64) []*genState {
	var out []*genState
	for i := len(v.window) - 1; i >= 0; i-- {
		g := v.window[i]
		if g.gen >= lo && g.gen <= gen && gen-g.gen <= maxGenWindow {
			out = append(out, g)
		}
		if g.gen < lo {
			break
		}
	}
	return out
}

func firstPass[T any](gs []*genState, p T, check func(*genState, T) error) error {
	if len(gs) == 0 {
		return errors.New("no reference generation in the reply's window")
	}
	var first error
	for _, g := range gs {
		err := check(g, p)
		if err == nil {
			return nil
		}
		if first == nil {
			first = err
		}
	}
	return first
}

// checkAll checks replies (all carrying generations the window covers)
// on every CPU.
func checkAll[T any](v *verifier, items []T, window func(T) (uint64, uint64), check func(*genState, T) error) error {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(items); i += workers {
				lo, gen := window(items[i])
				if err := firstPass(v.candidates(lo, gen), items[i], check); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verify checks every wire and HTTP reply of a run against an
// in-process core.Router on the fault set of the generation each reply
// reports, replaying the accepted delta prefix, and then runs the
// negative control: a corrupted wire reply and a corrupted HTTP path
// must both be rejected.
func verify(in *inputs, accepted []faults.ChurnEvent, replies []reply, hr []httpReply) (int, error) {
	sort.SliceStable(replies, func(i, j int) bool { return replies[i].gen < replies[j].gen })
	sort.SliceStable(hr, func(i, j int) bool { return hr[i].gen < hr[j].gen })
	set := in.initial.Clone()
	live := core.Compute(set, core.Options{})
	v := &verifier{in: in}
	push := func() {
		det := live.Detach()
		v.window = append(v.window, &genState{gen: set.Generation(), as: det, rt: core.NewRouter(det, core.LowestDim)})
		if len(v.window) > maxGenWindow+1 {
			v.window = v.window[1:]
		}
	}
	push()
	gen0 := set.Generation()
	last := gen0 + uint64(len(accepted))
	ri, hi := 0, 0
	for g := gen0; ; g++ {
		rj := ri
		for rj < len(replies) && replies[rj].gen <= g {
			rj++
		}
		hj := hi
		for hj < len(hr) && hr[hj].gen <= g {
			hj++
		}
		if err := checkAll(v, replies[ri:rj], func(p reply) (uint64, uint64) { return p.lo, p.gen }, checkReply); err != nil {
			return 0, err
		}
		if err := checkAll(v, hr[hi:hj], func(p httpReply) (uint64, uint64) { return p.lo, p.gen }, checkHTTP); err != nil {
			return 0, err
		}
		v.wire += rj - ri
		v.http += hj - hi
		ri, hi = rj, hj
		if g == last {
			break
		}
		prev := set.Generation()
		if err := set.Apply(accepted[g-gen0]); err != nil {
			return 0, fmt.Errorf("replay delta %d: %w", g-gen0, err)
		}
		delta, ok := set.Since(prev)
		next, repaired := core.RepairLevels(live, set, delta, core.Options{})
		if !ok || !repaired {
			next = core.Compute(set, core.Options{})
		}
		live = next
		push()
	}
	if ri != len(replies) || hi != len(hr) {
		return 0, fmt.Errorf("%d wire and %d http replies carry a generation beyond the %d deltas accepted",
			len(replies)-ri, len(hr)-hi, len(accepted))
	}
	if err := negativeControl(v); err != nil {
		return 0, err
	}
	return v.wire + v.http, nil
}

// negativeControl corrupts reference answers on the newest generation,
// one of each kind, and requires the checks to reject them: a wire
// reply with two extra hops, and an HTTP path whose first hop is moved.
func negativeControl(v *verifier) error {
	g := v.window[len(v.window)-1]
	pairs := v.in.pairs(0)
	for tries := 0; tries < 1000; tries++ {
		q := pairs.next()
		want, r, err := expectInfo(g.rt, q.Src, q.Dst)
		if err != nil {
			return err
		}
		if r.Outcome == core.Failure || r.Len() < 1 {
			continue
		}
		bad := reply{src: q.Src, dst: q.Dst, info: want, gen: g.gen}
		bad.info.Hops += 2
		if checkReply(g, bad) == nil {
			return errors.New("negative control: a reply with two extra hops passed the check")
		}
		hb := httpReply{src: q.Src, dst: q.Dst, outcome: r.Outcome.String(), cond: r.Condition.String(),
			info: wire.RouteInfo{Hamming: want.Hamming, Hops: want.Hops}, gen: g.gen,
			path: append([]topo.NodeID(nil), r.Path...)}
		if err := checkHTTP(g, hb); err != nil {
			return fmt.Errorf("negative control: the reference path failed the check: %w", err)
		}
		hb.path[1] ^= 1 << 1
		if hb.path[1] == hb.path[0] {
			hb.path[1] ^= 1
		}
		if checkHTTP(g, hb) == nil {
			return errors.New("negative control: a path with a moved first hop passed the check")
		}
		return nil
	}
	return errors.New("negative control: no admitted route to corrupt")
}
