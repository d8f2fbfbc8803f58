package core

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/topo"
)

// Outcome classifies a unicast attempt, mirroring the three exits of
// Algorithm UNICASTING_AT_SOURCE_NODE.
type Outcome int

const (
	// Optimal: the source met C1 or C2 and the message traveled a
	// Hamming-distance path.
	Optimal Outcome = iota
	// Suboptimal: only C3 held; the message took a spare first hop and
	// traveled H(s,d)+2 hops.
	Suboptimal
	// Failure: none of C1, C2, C3 held; the unicast was aborted at the
	// source. The paper: "the cause of failure can be either too many
	// faulty nodes in the neighborhood or a network partition."
	Failure
)

// String renders the outcome for tables and traces.
func (o Outcome) String() string {
	switch o {
	case Optimal:
		return "optimal"
	case Suboptimal:
		return "suboptimal"
	case Failure:
		return "failure"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Condition identifies which source-side safety test admitted a unicast.
type Condition int

const (
	// CondNone: no condition held; unicast aborted.
	CondNone Condition = iota
	// CondC1: S(s) >= H(s, d).
	CondC1
	// CondC2: some preferred neighbor has level >= H(s, d) - 1.
	CondC2
	// CondC3: some spare neighbor has level >= H(s, d) + 1.
	CondC3
)

// String renders the condition name used in the paper.
func (c Condition) String() string {
	switch c {
	case CondC1:
		return "C1"
	case CondC2:
		return "C2"
	case CondC3:
		return "C3"
	default:
		return "none"
	}
}

// TieBreak selects among equally-safest candidate neighbors. The paper
// leaves the choice open ("say 1111 along dimension 0"); the policy is
// pluggable so the ablation experiments can quantify that freedom.
// Candidates are dimensions in ascending order; in a generalized cube
// each dimension is represented by its lowest-coordinate safest sibling.
type TieBreak func(dims []int) int

// LowestDim picks the smallest candidate dimension. It is the default
// and makes every route deterministic.
func LowestDim(dims []int) int { return dims[0] }

// HighestDim picks the largest candidate dimension.
func HighestDim(dims []int) int { return dims[len(dims)-1] }

// Hop records one forwarding decision of the unicast algorithm.
type Hop struct {
	From topo.NodeID
	To   topo.NodeID
	// Dim is the dimension crossed.
	Dim int
	// Nav is the navigation vector sent along with the message
	// (already updated for this hop).
	Nav topo.NavVector
	// Spare marks the single detour hop of a suboptimal unicast.
	Spare bool
}

// Route is the result of one unicast attempt.
type Route struct {
	Source    topo.NodeID
	Dest      topo.NodeID
	Hamming   int
	Outcome   Outcome
	Condition Condition
	Path      topo.Path
	Hops      []Hop
	// Err carries a transport-level anomaly: the algorithm was admitted
	// at the source but a forwarding step found no usable preferred
	// neighbor. With a consistent assignment this cannot happen when a
	// condition held (Theorem 3); it is surfaced rather than panicking
	// so that deliberately inconsistent ablations (truncated GS rounds)
	// can observe the consequence.
	Err error
	// FlightID is the flight-recorder request ID the route was served
	// under (0 when the route was not issued through a serving engine).
	// It causally links the route to its flight record, histogram
	// exemplars, and any promoted incident.
	FlightID uint64
	// Gen is the fault-set generation of the serving snapshot the route
	// was computed on (0 when the router was not stamped; see
	// Router.Stamp). Replies carry this value, not the generation
	// current when they are encoded, which churn may already have
	// advanced.
	Gen uint64
}

// Len returns the number of hops traveled, or 0 for a failed unicast.
func (r *Route) Len() int { return r.Path.Len() }

// Router executes safety-level unicasts over one computed assignment.
type Router struct {
	as  *Assignment
	tie TieBreak
	// maxHops guards against forwarding loops if the caller routes on a
	// deliberately inconsistent assignment.
	maxHops int
	// obs, when non-nil, receives admission/hop/outcome events. The
	// nil case costs one branch per decision point.
	obs *obs.RouteObserver
	// gen is copied into every Route's Gen (see Stamp).
	gen uint64
}

// NewRouter returns a Router over assignment as using tie-break policy
// tie (nil means LowestDim).
func NewRouter(as *Assignment, tie TieBreak) *Router {
	if tie == nil {
		tie = LowestDim
	}
	return &Router{as: as, tie: tie, maxHops: as.t.Dim() + 3}
}

// Assignment returns the safety-level assignment the router consults.
func (rt *Router) Assignment() *Assignment { return rt.as }

// Observe attaches a route observer (nil detaches) and returns the
// router for chaining. A traced observer must not be shared between
// concurrent unicasts; counter-only observers may be.
func (rt *Router) Observe(o *obs.RouteObserver) *Router {
	rt.obs = o
	return rt
}

// Stamp sets the fault-set generation the router's assignment was
// published under; every Route it produces carries it in Gen. A
// serving engine stamps each snapshot's router once, so a reply can
// name the generation it was actually routed on. Returns the router
// for chaining.
func (rt *Router) Stamp(gen uint64) *Router {
	rt.gen = gen
	return rt
}

// Feasibility evaluates the source-side admission test for a unicast
// from s to d and returns the first condition that holds, in the
// algorithm's order C1, C2, C3, together with the outcome class it
// implies. It does not move any message.
func (rt *Router) Feasibility(s, d topo.NodeID) (Condition, Outcome) {
	as, t := rt.as, rt.as.t
	h := t.Distance(s, d)
	if h == 0 {
		return CondC1, Optimal
	}
	// Section 4.1 exclusion: the far end of an adjacent faulty link is
	// not covered by the source's own level (every length-1 "optimal
	// path" to it is the dead link itself), so a distance-1 unicast to
	// it can only be admitted suboptimally via C3.
	deadLinkDest := h == 1 && as.set.LinkFaulty(s, d)
	if !deadLinkDest {
		if as.OwnLevel(s) >= h {
			return CondC1, Optimal
		}
		for i := 0; i < t.Dim(); i++ {
			if t.Coord(s, i) != t.Coord(d, i) && rt.observed(s, t.Toward(s, d, i)) >= h-1 {
				return CondC2, Optimal
			}
		}
	}
	var sibs []topo.NodeID
	for i := 0; i < t.Dim(); i++ {
		if t.Coord(s, i) != t.Coord(d, i) {
			continue
		}
		// Any sibling along a spare dimension qualifies as the detour.
		sibs = t.Siblings(s, i, sibs[:0])
		for _, b := range sibs {
			if rt.observed(s, b) >= h+1 {
				return CondC3, Suboptimal
			}
		}
	}
	return CondNone, Failure
}

// observed is the safety level of s's neighbor b as s observes it: the
// public level, with one addition from Section 4.1 — a node never
// forwards across one of its own faulty links, so the far end of a
// faulty link is observed as level 0 regardless of its public value.
func (rt *Router) observed(s, b topo.NodeID) int {
	if rt.as.set.LinkFaulty(s, b) {
		return 0
	}
	return rt.as.Level(b)
}

// UnicastID is Unicast stamped with a flight-recorder request ID, so
// every hop decision of the route is causally attributable to one
// serving-path request.
func (rt *Router) UnicastID(s, d topo.NodeID, id uint64) *Route {
	r := rt.Unicast(s, d)
	r.FlightID = id
	return r
}

// Unicast routes a message from s to d and returns the full trace.
// s must be nonfaulty. d may be any node: the paper delivers the final
// hop even to a faulty or N2 destination (Theorem 2 proof, j = 1 case,
// and footnote to Section 4.1).
func (rt *Router) Unicast(s, d topo.NodeID) *Route {
	as, t := rt.as, rt.as.t
	r := &Route{Source: s, Dest: d, Hamming: t.Distance(s, d), Gen: rt.gen}
	if !t.Contains(s) || !t.Contains(d) {
		r.Outcome = Failure
		r.Err = fmt.Errorf("core: node outside cube")
		if rt.obs != nil {
			rt.obs.Admit(int(s), r.Hamming, 0, CondNone.String(), Failure.String())
		}
		return rt.finishObs(r, int(s))
	}
	if as.set.NodeFaulty(s) {
		r.Outcome = Failure
		r.Err = fmt.Errorf("core: source %s is faulty", t.Format(s))
		if rt.obs != nil {
			rt.obs.Admit(int(s), r.Hamming, 0, CondNone.String(), Failure.String())
		}
		return rt.finishObs(r, int(s))
	}
	cond, outcome := rt.Feasibility(s, d)
	r.Condition = cond
	r.Outcome = outcome
	if rt.obs != nil {
		rt.obs.Admit(int(s), r.Hamming, as.OwnLevel(s), cond.String(), outcome.String())
	}
	if outcome == Failure {
		return rt.finishObs(r, int(s))
	}
	r.Path = topo.Path{s}
	if s == d {
		return rt.finishObs(r, int(s))
	}

	cur := s
	if cond == CondC3 {
		// Suboptimal first hop: the spare neighbor with the highest
		// safety level among those meeting the C3 threshold.
		dim, next, ok := rt.pickSpare(cur, d, r.Hamming)
		if !ok {
			// Unreachable when Feasibility just admitted C3 on the same
			// oracle; kept as a guard for inconsistent ablations.
			r.Err = fmt.Errorf("core: node %s has no usable spare neighbor", t.Format(cur))
			r.Outcome = Failure
			return rt.finishObs(r, int(cur))
		}
		if rt.obs != nil {
			rt.obs.Hop(int(cur), int(next), dim, rt.observed(cur, next), true)
		}
		cur = next
		r.Hops = append(r.Hops, Hop{From: s, To: cur, Dim: dim, Nav: topo.NavIn(t, cur, d), Spare: true})
		r.Path = append(r.Path, cur)
	}
	for hops := 0; cur != d; hops++ {
		if hops > rt.maxHops {
			r.Err = fmt.Errorf("core: forwarding exceeded %d hops (inconsistent levels?)", rt.maxHops)
			r.Outcome = Failure
			return rt.finishObs(r, int(cur))
		}
		dim, next, ok := rt.pickPreferred(cur, d)
		if !ok {
			r.Err = fmt.Errorf("core: node %s has no usable preferred neighbor (nav %0*b)",
				t.Format(cur), t.Dim(), topo.NavIn(t, cur, d))
			r.Outcome = Failure
			return rt.finishObs(r, int(cur))
		}
		if rt.obs != nil {
			rt.obs.Hop(int(cur), int(next), dim, rt.as.Level(next), false)
		}
		r.Hops = append(r.Hops, Hop{From: cur, To: next, Dim: dim, Nav: topo.NavIn(t, next, d)})
		r.Path = append(r.Path, next)
		cur = next
	}
	return rt.finishObs(r, int(cur))
}

// finishObs emits the terminal observation for a completed Unicast and
// returns the route unchanged. It is a no-op without an observer.
func (rt *Router) finishObs(r *Route, at int) *Route {
	if rt.obs == nil {
		return r
	}
	note := ""
	if r.Err != nil {
		note = r.Err.Error()
	}
	rt.obs.Done(at, r.Condition.String(), r.Outcome.String(), r.Path.Len(), r.Hamming, 0, note)
	return r
}

// pickPreferred chooses the preferred dimension whose candidate neighbor
// (the sibling matching the destination's coordinate) has the highest
// safety level, breaking ties with the router policy. At distance 1 the
// candidate is the destination itself and is chosen unconditionally
// (final delivery); otherwise intermediate candidates must be
// traversable: nonfaulty and not across a faulty link.
func (rt *Router) pickPreferred(cur, d topo.NodeID) (int, topo.NodeID, bool) {
	t := rt.as.t
	if t.Distance(cur, d) == 1 {
		// Final hop: delivered even to a faulty destination, but not
		// across a faulty link.
		if rt.as.set.LinkFaulty(cur, d) {
			return 0, 0, false
		}
		return t.LinkDim(cur, d), d, true
	}
	best := -1
	var candDims []int
	var candNodes []topo.NodeID
	for i := 0; i < t.Dim(); i++ {
		if t.Coord(cur, i) == t.Coord(d, i) {
			continue
		}
		b := t.Toward(cur, d, i)
		if rt.as.set.NodeFaulty(b) || rt.as.set.LinkFaulty(cur, b) {
			continue
		}
		lv := rt.as.Level(b)
		if lv > best {
			best = lv
			candDims = candDims[:0]
			candNodes = candNodes[:0]
		} else if lv < best {
			continue
		}
		candDims = append(candDims, i)
		candNodes = append(candNodes, b)
	}
	if best < 0 {
		return 0, 0, false
	}
	dim := rt.tie(candDims)
	for j, i := range candDims {
		if i == dim {
			return dim, candNodes[j], true
		}
	}
	return 0, 0, false
}

// pickSpare chooses the spare dimension whose neighbor has the highest
// safety level among those satisfying C3 (observed level >= H+1). In a
// generalized cube each spare dimension is represented by its
// lowest-coordinate safest sibling; ties across dimensions go to the
// router policy. ok is false when no spare neighbor qualifies (possible
// in a Session whose oracle changed after admission).
func (rt *Router) pickSpare(cur, d topo.NodeID, h int) (int, topo.NodeID, bool) {
	t := rt.as.t
	best := -1
	var candDims []int
	var candNodes []topo.NodeID
	var sibs []topo.NodeID
	for i := 0; i < t.Dim(); i++ {
		if t.Coord(cur, i) != t.Coord(d, i) {
			continue
		}
		sibs = t.Siblings(cur, i, sibs[:0])
		for _, b := range sibs {
			lv := rt.observed(cur, b)
			if lv < h+1 {
				continue
			}
			if lv > best {
				best = lv
				candDims = candDims[:0]
				candNodes = candNodes[:0]
			} else if lv < best || (len(candDims) > 0 && candDims[len(candDims)-1] == i) {
				// Keep the lowest-coordinate representative per dimension.
				continue
			}
			candDims = append(candDims, i)
			candNodes = append(candNodes, b)
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	dim := rt.tie(candDims)
	for j, i := range candDims {
		if i == dim {
			return dim, candNodes[j], true
		}
	}
	return 0, 0, false
}
