package serve

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Flight-recorder glue for the serving path: summarize a core.Route into the
// packed record fields, and — only when a record is promoted to an
// incident — reconstruct the full per-hop RouteTrace from the route's
// decision record and the snapshot's level assignment. Nothing here
// allocates on the healthy hot path; see obs/flight.go for the cost
// model.

// outcomeOf shifts a routed outcome into the flight encoding (0 is
// reserved for "never routed").
func outcomeOf(r *core.Route) obs.OutcomeCode {
	return obs.OutcomeCode(r.Outcome) + 1
}

// detoursOf counts the spare-dimension hops of a route. A suboptimal
// safety-level unicast takes exactly one spare hop and pays it back
// coming home, so Hops - Hamming = 2 * detours on every delivery.
func detoursOf(r *core.Route) int {
	n := 0
	for i := range r.Hops {
		if r.Hops[i].Spare {
			n++
		}
	}
	return n
}

// deadlineUS returns the remaining deadline budget at start, in
// microseconds (0 when ctx carries no deadline, 1 minimum once one
// exists so "had a deadline" is never confused with "had none").
func deadlineUS(ctx context.Context, start time.Time) int64 {
	if ctx == nil {
		return 0
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	us := dl.Sub(start).Microseconds()
	if us < 1 {
		us = 1
	}
	return us
}

// flightRefuse records a request that never reached a snapshot —
// shed, draining, context-dead, or churn bounced off a full queue —
// and promotes it (refusals are anomalies by definition). start may be
// zero (TryApply has no admission timestamp) and ctx may be nil.
func (s *Service) flightRefuse(kind obs.ReqKind, start time.Time, ctx context.Context, items int, err error) {
	fl := s.flight
	if fl == nil {
		return
	}
	rec := obs.FlightRecord{
		ID:    fl.NextID(),
		Kind:  kind,
		Items: items,
		Err:   refusalOf(err).class,
	}
	if !start.IsZero() {
		rec.Start = start.Unix()
		rec.LatencyUS = time.Since(start).Microseconds()
		rec.DeadlineUS = deadlineUS(ctx, start)
	}
	if reason := fl.Record(&rec); reason != "" {
		fl.Promote(&rec, reason, nil)
	}
}

// flightServed records a successfully served batch/fan-out request
// (no per-route triple; the per-unicast evidence for those lives in
// the aggregate histograms) and feeds the latency histogram with the
// request ID as exemplar.
func (s *Service) flightServed(kind obs.ReqKind, start time.Time, ctx context.Context, items int, sn *Snapshot, stale bool, lat *obs.Histogram) {
	fl := s.flight
	id := fl.NextID()
	us := time.Since(start).Microseconds()
	lat.ObserveEx(us, id)
	rec := obs.FlightRecord{
		ID:         id,
		Kind:       kind,
		Gen:        sn.gen,
		Start:      start.Unix(),
		LatencyUS:  us,
		DeadlineUS: deadlineUS(ctx, start),
		Items:      items,
		Stale:      stale,
	}
	if !sn.Consistent() {
		rec.Err = obs.ErrClassTorn
	}
	if reason := fl.Record(&rec); reason != "" {
		fl.Promote(&rec, reason, nil)
	}
}

// traceOfRoute rebuilds the full decision trace of a served route for
// incident promotion: the admission decision at the source, every hop
// with its dimension, spare role and the hopped-to node's public level
// in the served snapshot, and the final outcome. Levels shown for hops
// are the snapshot's public levels (not the sender's link-adjusted
// view), which is what an operator comparing against /levels sees.
func traceOfRoute(r *core.Route, as *core.Assignment, id, gen uint64) *obs.RouteTrace {
	t := &obs.RouteTrace{
		Source:     int(r.Source),
		Dest:       int(r.Dest),
		Hamming:    r.Hamming,
		RequestID:  id,
		Generation: gen,
		Cond:       r.Condition.String(),
		Outcome:    r.Outcome.String(),
		PathLen:    r.Len(),
	}
	t.Events = append(t.Events, obs.RouteEvent{
		Kind:    obs.EvAdmit,
		Node:    int(r.Source),
		Hamming: r.Hamming,
		Level:   as.OwnLevel(r.Source),
		Cond:    r.Condition.String(),
		Outcome: r.Outcome.String(),
	})
	at := r.Source
	for _, h := range r.Hops {
		t.Events = append(t.Events, obs.RouteEvent{
			Kind:  obs.EvHop,
			Node:  int(h.To),
			From:  int(h.From),
			Dim:   h.Dim,
			Spare: h.Spare,
			Level: as.Level(h.To),
		})
		at = h.To
	}
	note := ""
	if r.Err != nil {
		note = r.Err.Error()
	}
	t.Events = append(t.Events, obs.RouteEvent{
		Kind:    obs.EvDone,
		Node:    int(at),
		Cond:    r.Condition.String(),
		Outcome: r.Outcome.String(),
		Note:    note,
	})
	if r.Outcome != core.Failure {
		t.Stretch = t.PathLen - r.Hamming
	}
	return t
}
