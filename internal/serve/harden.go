package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/topo"
)

// Production hardening of the read path. The lock-free snapshot
// readers in serve.go can never block each other — but a production
// deployment still needs three guarantees they do not give on their
// own:
//
//   - Deadlines: a caller with a context gets an answer or that
//     context's error, promptly, even mid-batch.
//   - Admission control: an offered load beyond the configured rate is
//     shed at the door with ErrOverload (reader-side shedding), which
//     is deliberately a different signal from ErrBacklog
//     (writer-side churn backpressure): shedding protects the latency
//     of admitted requests, backpressure protects the applier.
//   - Drain ordering: Shutdown refuses new context-carrying requests,
//     waits for every in-flight one to finish against its pinned
//     snapshot, flushes the apply queue (so churn accepted before the
//     drain still reaches a published snapshot), and only then stops
//     the applier. A request admitted before the drain therefore
//     always completes against a consistent, fully published snapshot
//     — the invariant TestServeDrainOrdering pins under -race.
//
// The context-free methods (Route, BatchUnicast, RouteAll) keep their
// PR-4 semantics: never admitted, never shed, never refused — they
// serve the last published snapshot even after Close. The hardened
// surface is the *Ctx family below.

// ErrOverload is returned by the context-aware readers when the
// token-bucket admission controller sheds the request. It maps to HTTP
// 429 (the refusal table, handle.go). Compare ErrBacklog, the
// writer-side signal.
var ErrOverload = errors.New("serve: overloaded, request shed")

// ErrDraining is returned by the context-aware readers once Shutdown
// (or Close) has begun: the service no longer admits new requests but
// still completes the ones already in flight. Maps to HTTP 503.
var ErrDraining = errors.New("serve: draining, not admitting requests")

// Service lifecycle phases (Service.phase).
const (
	phaseServing int32 = iota
	phaseDraining
	phaseStopped
)

// tokenBucket is a lock-free GCRA-style token bucket: the whole state
// is one atomic "theoretical arrival time" in nanoseconds. take(n)
// costs one CAS on the uncontended path and never blocks — admission
// control must not queue, or shed load would still consume the latency
// budget it exists to protect.
type tokenBucket struct {
	interval int64 // nanoseconds earned back per token
	depth    int64 // burst depth in nanoseconds (burst * interval)
	tat      atomic.Int64
}

// newTokenBucket builds a bucket admitting rate tokens/second with the
// given burst. rate <= 0 disables admission control (nil bucket).
func newTokenBucket(rate float64, burst int) *tokenBucket {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	interval := int64(float64(time.Second) / rate)
	if interval < 1 {
		interval = 1
	}
	b := &tokenBucket{interval: interval, depth: int64(burst) * interval}
	b.tat.Store(time.Now().UnixNano() - b.depth) // start full
	return b
}

// take admits n tokens' worth of work, or reports shedding. A nil
// bucket admits everything.
func (b *tokenBucket) take(n int) bool {
	if b == nil {
		return true
	}
	cost := int64(n) * b.interval
	for {
		now := time.Now().UnixNano()
		tat := b.tat.Load()
		next := tat
		if now > next {
			next = now
		}
		next += cost
		if next-now > b.depth {
			return false
		}
		if b.tat.CompareAndSwap(tat, next) {
			return true
		}
	}
}

// acquire registers one in-flight request. It refuses once draining
// has begun; the seq-cst re-check after the increment closes the race
// with Shutdown flipping the phase between our load and our add.
func (s *Service) acquire() error {
	if s.phase.Load() != phaseServing {
		return ErrDraining
	}
	s.inflight.Add(1)
	s.mInflight.Add(1)
	if s.phase.Load() != phaseServing {
		s.release()
		return ErrDraining
	}
	return nil
}

// release retires one in-flight request and, if a drain is waiting on
// us, signals it when the count hits zero.
func (s *Service) release() {
	s.mInflight.Add(-1)
	if s.inflight.Add(-1) == 0 && s.phase.Load() != phaseServing {
		s.signalDrained()
	}
}

func (s *Service) signalDrained() {
	s.drainOnce.Do(func() { close(s.drained) })
}

// Inflight returns the number of context-aware requests currently
// being served (also exported as serve_inflight).
func (s *Service) Inflight() int64 { return s.inflight.Load() }

// ctxErr classifies a context error for metrics and returns it.
func (s *Service) ctxErr(ctx context.Context) error {
	s.mDeadline.Inc()
	return ctx.Err()
}

// admit lets a context-aware request of items unicasts in, or refuses
// it: ErrDraining once Shutdown has begun, ctx.Err() once the context
// is done, ErrOverload when the token bucket sheds it. A refusal is
// flight-recorded; an admitted caller must release.
func (s *Service) admit(ctx context.Context, kind obs.ReqKind, start time.Time, items int) error {
	err := s.acquire()
	if err == nil {
		switch {
		case ctx.Err() != nil:
			err = s.ctxErr(ctx)
		case !s.bucket.take(items):
			s.mOverload.Inc()
			err = ErrOverload
		}
		if err != nil {
			s.release()
		}
	}
	if err != nil {
		s.flightRefuse(kind, start, ctx, items, err)
	}
	return err
}

// RouteCtx is Route with deadlines, admission control and drain
// awareness: it refuses with ErrDraining after Shutdown begins, sheds
// with ErrOverload beyond the configured rate, returns ctx.Err() once
// the context is done, and otherwise routes against the snapshot
// current at admission time, recording the wall latency.
func (s *Service) RouteCtx(ctx context.Context, src, dst topo.NodeID) (*core.Route, error) {
	fl := s.flight
	var start time.Time
	if fl != nil {
		start = time.Now()
	}
	if err := s.admit(ctx, obs.ReqRoute, start, 1); err != nil {
		return nil, err
	}
	defer s.release()
	if fl == nil {
		start = time.Now()
		r := s.Route(src, dst)
		s.mLatRoute.ObserveSince(start)
		return r, nil
	}
	// Flight-recorded path: inline s.Route so the snapshot stays in
	// hand for generation attribution and (rare) trace reconstruction.
	sn := s.cur.Load()
	s.mRoutes.Inc()
	stale := len(s.queue) > 0
	if stale {
		s.mStale.Inc()
	}
	id := fl.NextID()
	r := sn.rt.UnicastID(src, dst, id)
	lat := time.Since(start).Microseconds()
	s.mLatRoute.ObserveEx(lat, id)
	rec := obs.FlightRecord{
		ID:         id,
		Kind:       obs.ReqRoute,
		Gen:        sn.gen,
		Start:      start.Unix(),
		LatencyUS:  lat,
		DeadlineUS: deadlineUS(ctx, start),
		Hamming:    r.Hamming,
		Hops:       r.Len(),
		Detours:    detoursOf(r),
		Items:      1,
		Cond:       obs.CondCode(r.Condition),
		Outcome:    outcomeOf(r),
		Stale:      stale,
	}
	switch {
	case !sn.Consistent():
		rec.Err = obs.ErrClassTorn
	case r.Err != nil:
		rec.Err = obs.ErrClassOther
	case r.Outcome == core.Failure:
		// Admission refused the pair outright (Route.Err stays nil on
		// that path): no safe route exists under the current faults.
		// A partition or dimension cut surfaces here as "unreachable"
		// (Theorem 4), not as a transport anomaly.
		rec.Err = obs.ErrClassUnreachable
	}
	if reason := fl.Record(&rec); reason != "" {
		fl.Promote(&rec, reason, traceOfRoute(r, sn.as, id, sn.gen))
	}
	return r, nil
}

// BatchUnicastCtx is BatchUnicast with the same hardening. Admission
// costs one token per request in the batch; cancellation is observed
// between items, so a batch returns within one unicast of its
// context's deadline (partial results are discarded: the caller asked
// for a mutually consistent answer set, and a truncated one is not).
func (s *Service) BatchUnicastCtx(ctx context.Context, reqs []Request) ([]*core.Route, error) {
	return s.pinnedCtx(ctx, reqs, &s.batchM)
}

// RouteAllCtx is RouteAll with the same hardening; admission costs one
// token per destination.
func (s *Service) RouteAllCtx(ctx context.Context, src topo.NodeID) ([]*core.Route, error) {
	reqs := s.fanout(src)
	routes, err := s.pinnedCtx(ctx, reqs, &s.fanoutM)
	if err != nil {
		return nil, err
	}
	return s.byDest(reqs, routes), nil
}

// pinnedMetrics names the flight kind and metric series of a family of
// snapshot-pinned reads (a nil series is not counted).
type pinnedMetrics struct {
	kind                obs.ReqKind
	calls, items, stale *obs.Counter
	lat                 *obs.Histogram
}

// pinnedCtx is the hardened path of BatchUnicastCtx and RouteAllCtx:
// admit, pin one snapshot, route every request on it.
func (s *Service) pinnedCtx(ctx context.Context, reqs []Request, m *pinnedMetrics) ([]*core.Route, error) {
	fl := s.flight
	var start time.Time
	if fl != nil {
		start = time.Now()
	}
	if err := s.admit(ctx, m.kind, start, len(reqs)); err != nil {
		return nil, err
	}
	defer s.release()
	if fl == nil {
		start = time.Now()
	}
	sn := s.cur.Load()
	m.calls.Inc()
	m.items.Add(int64(len(reqs)))
	stale := len(s.queue) > 0
	if stale {
		m.stale.Inc()
	}
	out, err := sn.batchUnicastCtx(ctx, reqs, s.workers)
	if err != nil {
		err = s.ctxErr(ctx)
		s.flightRefuse(m.kind, start, ctx, len(reqs), err)
		return nil, err
	}
	if fl == nil {
		m.lat.ObserveSince(start)
		return out, nil
	}
	s.flightServed(m.kind, start, ctx, len(reqs), sn, stale, m.lat)
	return out, nil
}

// batchUnicastCtx answers every request pinned to this snapshot, fanned
// over at most workers goroutines (<= 1 means sequential). Every worker
// re-checks the context before claiming the next index, so cancellation
// latency is bounded by one unicast, not by the batch; a canceled batch
// returns ctx.Err() and no routes.
func (sn *Snapshot) batchUnicastCtx(ctx context.Context, reqs []Request, workers int) ([]*core.Route, error) {
	out := make([]*core.Route, len(reqs))
	workers = min(workers, len(reqs))
	if workers <= 1 {
		for i, q := range reqs {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			out[i] = sn.rt.Unicast(q.Src, q.Dst)
		}
		return out, nil
	}
	// Work-stealing by atomic cursor: each worker claims the next
	// unanswered index, so skewed per-route costs (short vs partitioned
	// unicasts) cannot idle the pool.
	// One struct, so the state the workers share costs one allocation.
	var pool struct {
		next     atomic.Int64
		canceled atomic.Bool
		wg       sync.WaitGroup
	}
	for w := 0; w < workers; w++ {
		pool.wg.Add(1)
		go func() {
			defer pool.wg.Done()
			for {
				if ctx.Err() != nil {
					pool.canceled.Store(true)
					return
				}
				i := int(pool.next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = sn.rt.Unicast(reqs[i].Src, reqs[i].Dst)
			}
		}()
	}
	pool.wg.Wait()
	if pool.canceled.Load() {
		return nil, ctx.Err()
	}
	return out, nil
}

// Shutdown drains the service: it stops admitting context-aware
// requests (they get ErrDraining), waits for every in-flight request
// to complete, flushes the apply queue so churn accepted before the
// drain reaches a published snapshot, and then stops the applier.
// The drain order is the guarantee: in-flight requests first, queue
// flush second, final snapshot swap third, applier stop last.
//
// If ctx expires while in-flight requests remain, Shutdown abandons
// the drain, hard-closes the service (exactly Close), and returns
// ctx.Err(). In-flight requests still finish correctly — they hold
// immutable snapshots — but Shutdown no longer vouches for having
// waited for them.
//
// Shutdown is idempotent and safe to race with Close; the context-free
// readers keep serving the final snapshot afterwards.
func (s *Service) Shutdown(ctx context.Context) error {
	s.phase.CompareAndSwap(phaseServing, phaseDraining)
	s.mDraining.Set(1)
	if s.inflight.Load() == 0 {
		s.signalDrained()
	}
	select {
	case <-s.drained:
	case <-ctx.Done():
		s.Close()
		return ctx.Err()
	}
	// All in-flight requests have retired. Publish any churn accepted
	// before (or during) the drain, then stop the applier for good.
	s.Flush()
	s.Close()
	return nil
}
