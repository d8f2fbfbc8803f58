package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/wire"
)

// The transport-neutral request surface. HTTP (http.go) and the wire
// protocol (wireserver.go) are codecs over Handle: each decodes its
// bytes into a Call, Handle checks and serves it, and the codec encodes
// the Reply or looks the refusal up in one table. Whether a request is
// served or refused therefore depends on the request, never on the
// transport it arrived on (TestTransportEquivalence pins this).

// MaxBatch bounds the pair count of one batch on every transport.
const MaxBatch = 4096

var (
	// ErrMalformed marks a request a codec could not decode: a missing
	// or unparsable parameter, a truncated payload.
	ErrMalformed = errors.New("serve: malformed request")
	// ErrInvalid marks a decoded request no fault state could serve: a
	// node outside the topology, a link between non-neighbours, an
	// unknown churn kind.
	ErrInvalid = errors.New("serve: invalid request")
	// ErrTooLarge refuses a batch of more than MaxBatch pairs.
	ErrTooLarge = errors.New("serve: batch too large")
)

// refusedError is a refusal that prints its detail alone and matches
// its sentinel under errors.Is.
type refusedError struct {
	sentinel error
	msg      string
}

func (e *refusedError) Error() string { return e.msg }
func (e *refusedError) Unwrap() error { return e.sentinel }

// malformed wraps a codec's decode error as ErrMalformed.
func malformed(err error) error { return &refusedError{ErrMalformed, err.Error()} }

func invalidf(format string, args ...any) error {
	return &refusedError{ErrInvalid, fmt.Sprintf(format, args...)}
}

var errOutside error = &refusedError{ErrInvalid, "node outside topology"}

// refusal is one row of the refusal table: how every transport answers
// a request refused with err — HTTP status, wire error code and
// flight-record class. A write row is met only by the fault op; it
// precedes the read row sharing its status, so StatusErr can tell them
// apart.
type refusal struct {
	err    error
	status int
	code   wire.ErrCode
	class  obs.ErrClass
	write  bool
}

// refusals is the refusal table. Anything it does not match is an
// internal error (500, wire.CodeInternal, obs.ErrClassOther).
var refusals = [...]refusal{
	{ErrMalformed, 400, wire.CodeBadRequest, obs.ErrClassOther, false},
	{ErrInvalid, 422, wire.CodeBadRequest, obs.ErrClassOther, false},
	{ErrTooLarge, 413, wire.CodeTooLarge, obs.ErrClassOther, false},
	{ErrBacklog, 429, wire.CodeBacklog, obs.ErrClassBacklog, true},
	{ErrOverload, 429, wire.CodeOverload, obs.ErrClassOverload, false},
	{ErrClosed, 503, wire.CodeDraining, obs.ErrClassDraining, true},
	{ErrDraining, 503, wire.CodeDraining, obs.ErrClassDraining, false},
	{context.DeadlineExceeded, 504, wire.CodeDeadline, obs.ErrClassDeadline, false},
	{context.Canceled, 499, wire.CodeCanceled, obs.ErrClassCanceled, false},
}

// refusalOf returns the refusal-table row for err.
func refusalOf(err error) refusal {
	for _, r := range refusals {
		if errors.Is(err, r.err) {
			return r
		}
	}
	return refusal{err, 500, wire.CodeInternal, obs.ErrClassOther, false}
}

// StatusErr inverts the refusal table for an HTTP client: the sentinel
// a status answers, nil for 2xx. fault says whether the request was a
// fault post, which separates a full churn queue from admission
// shedding (both 429) and a closed service from a draining one (both
// 503). A status outside the table yields a plain error.
func StatusErr(status int, fault bool) error {
	if status >= 200 && status < 300 {
		return nil
	}
	for _, r := range refusals {
		if r.status == status && (fault || !r.write) {
			return r.err
		}
	}
	return fmt.Errorf("serve: HTTP status %d", status)
}

// Op names what a Call asks for: one unicast (RouteCtx), a batch pinned
// to one snapshot (BatchUnicastCtx), a fan-out from Src (RouteAllCtx),
// the source-side admission test alone, or one churn event enqueued
// without blocking (TryApply).
type Op uint8

const (
	OpRoute Op = iota
	OpBatch
	OpRouteAll
	OpFeasibility
	OpFault
)

// Call is one decoded request.
type Call struct {
	Op Op
	// Src and Dst are the endpoints of a route or feasibility call; Src
	// alone is the source of a fan-out.
	Src, Dst topo.NodeID
	// Pairs is a batch's request list.
	Pairs []Request
	// Event is a fault call's churn event.
	Event faults.ChurnEvent
	// Budget is the caller's deadline budget; 0 means none. The
	// service's Options.Deadline ceiling applies either way.
	Budget time.Duration
}

// Reply is the answer to a served Call.
type Reply struct {
	// Route answers OpRoute; Routes answers OpBatch in request order
	// and OpRouteAll indexed by destination (the source's slot is nil).
	Route  *core.Route
	Routes []*core.Route
	// Gen is the generation of the snapshot the call was routed on; for
	// OpFault, the generation current when the event was accepted.
	Gen uint64
	// FlightID is the flight-recorder ID of an OpRoute.
	FlightID uint64
	// Cond and Outcome answer OpFeasibility.
	Cond    core.Condition
	Outcome core.Outcome
	// QueueDepth is the churn queue depth after an OpFault.
	QueueDepth int
}

// check applies the request checks every transport shares: every node
// is in the topology, a batch has at most MaxBatch pairs, a fault event
// is valid.
func (s *Service) check(c *Call) error {
	switch c.Op {
	case OpRoute, OpFeasibility:
		if !s.t.Contains(c.Src) || !s.t.Contains(c.Dst) {
			return errOutside
		}
	case OpRouteAll:
		if !s.t.Contains(c.Src) {
			return errOutside
		}
	case OpBatch:
		if len(c.Pairs) > MaxBatch {
			return &refusedError{ErrTooLarge, fmt.Sprintf("batch of %d pairs exceeds limit %d", len(c.Pairs), MaxBatch)}
		}
		for _, q := range c.Pairs {
			if !s.t.Contains(q.Src) || !s.t.Contains(q.Dst) {
				return errOutside
			}
		}
	case OpFault:
		return s.validate([]faults.ChurnEvent{c.Event})
	default:
		return invalidf("serve: unknown op %d", c.Op)
	}
	return nil
}

// Handle checks and serves one call, filling r. It is the whole request
// surface of both transports: a refusal is an error the refusal table
// maps to the transport's status or code. Reads run under the effective
// deadline min(c.Budget, Options.Deadline), a zero budget meaning the
// ceiling alone.
func (s *Service) Handle(ctx context.Context, c *Call, r *Reply) error {
	*r = Reply{}
	if err := s.check(c); err != nil {
		return err
	}
	switch c.Op {
	case OpFeasibility:
		r.Cond, r.Outcome = s.Feasibility(c.Src, c.Dst)
		return nil
	case OpFault:
		err := s.TryApply(c.Event)
		r.Gen, r.QueueDepth = s.Generation(), s.QueueDepth()
		return err
	}
	limit := s.deadline
	if c.Budget > 0 && (limit == 0 || c.Budget < limit) {
		limit = c.Budget
	}
	if limit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, limit)
		defer cancel()
	}
	var err error
	switch c.Op {
	case OpRoute:
		r.Route, err = s.RouteCtx(ctx, c.Src, c.Dst)
	case OpBatch:
		r.Routes, err = s.BatchUnicastCtx(ctx, c.Pairs)
	default: // OpRouteAll
		r.Routes, err = s.RouteAllCtx(ctx, c.Src)
	}
	if err != nil {
		return err
	}
	// Every route of one call shares its snapshot; a call that routed
	// nothing reports the current generation.
	r.Gen = s.Generation()
	if r.Route != nil {
		r.Gen, r.FlightID = r.Route.Gen, r.Route.FlightID
	}
	for _, rt := range r.Routes {
		if rt != nil {
			r.Gen = rt.Gen
			break
		}
	}
	return nil
}
