package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/topo"
	"repro/internal/wire"
)

// The traced run replays one request stream through the public entry
// point of each layer, innermost first, single caller unless noted:
//
//	core    Snapshot.Route (the paper's router on a published snapshot)
//	serve   Service.RouteCtx, Service.BatchUnicastCtx, TryApply+Flush
//	wire    the codec, Client.Unicast against an in-process WireServer,
//	        Coalescer.Unicast, Client.Fault
//	slserve GET /route and Client.Unicast against the slserve process
//
// Request i is the same pair in every layer, so a layer's self time is
// its span minus the next inner layer's span for the same request.

// tracer keeps spans in memory and the per-layer durations by request.
type tracer struct {
	spans []span
	durs  map[string][]time.Duration
}

func newTracer() *tracer { return &tracer{durs: map[string][]time.Duration{}} }

// time runs fn once as request id of layer and records its span.
func (t *tracer) time(layer string, id int, fn func()) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	t.spans = append(t.spans, span{id: uint64(id), layer: layer, start: t0, end: t1})
	t.durs[layer] = append(t.durs[layer], t1.Sub(t0))
}

// median of a layer's durations.
func (t *tracer) median(layer string) time.Duration {
	return quantile(sortedDur(t.durs[layer]), 0.5)
}

// self is the median over requests of outer minus the inner layers.
func (t *tracer) self(outer string, inner ...string) time.Duration {
	o := t.durs[outer]
	v := make([]time.Duration, len(o))
	for i := range o {
		v[i] = o[i]
		for _, l := range inner {
			v[i] -= t.durs[l][i]
		}
	}
	return quantile(sortedDur(v), 0.5)
}

// allocs counts heap allocations and bytes per call of fn over n calls.
func allocs(n int, fn func(i int)) (float64, float64) {
	runtime.GC()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// counter reads a registry counter.
func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

// replayLayers measures every layer on fault set set, with n requests
// of the trace stream and up to nDeltas of events, and returns the
// per-layer metrics. The slserve layer is timed on a running route
// server, whose fault set is set.
func replayLayers(in *inputs, set *faults.Set, events []faults.ChurnEvent, srv *server, n, nDeltas int) (map[string]float64, *tracer, error) {
	m := map[string]float64{}
	tr := newTracer()
	ctx := context.Background()
	ps := in.pairs(0).fill(make([]wire.Pair, n))
	node := func(i int) (topo.NodeID, topo.NodeID) { return topo.NodeID(ps[i].Src), topo.NodeID(ps[i].Dst) }
	warm := min(n, 500)

	reg := obs.NewRegistry()
	svc, err := serve.New(set, serve.Options{Registry: reg})
	if err != nil {
		return nil, nil, err
	}
	defer svc.Close()
	bare, err := serve.New(set, serve.Options{Registry: obs.NewRegistry(), NoFlight: true})
	if err != nil {
		return nil, nil, err
	}
	defer bare.Close()

	// core: the router on the published snapshot. One untimed pass over
	// the whole stream first, so every layer below is timed with the
	// level table as warm as the stream makes it, not the later layers
	// warmer than the first.
	sn := svc.Current()
	for i := 0; i < n; i++ {
		sn.Route(node(i))
	}
	var hops, admitted, c2, c3, fail int
	for i := 0; i < n; i++ {
		var r *core.Route
		tr.time("core", i, func() { r = sn.Route(node(i)) })
		switch r.Condition {
		case core.CondC2:
			c2++
		case core.CondC3:
			c3++
		}
		if r.Outcome == core.Failure {
			fail++
		} else {
			admitted++
			hops += r.Len()
		}
	}
	m["core.unicast_ns"] = float64(tr.median("core").Nanoseconds())
	m["core.unicast_allocs"], m["core.unicast_bytes"] = allocs(n, func(i int) { sn.Route(node(i)) })
	m["core.hops_per_route"] = float64(hops) / float64(max(admitted, 1))
	m["core.c2_share"] = float64(c2) / float64(n)
	m["core.c3_share"] = float64(c3) / float64(n)
	m["core.failure_share"] = float64(fail) / float64(n)

	// serve: the hardened read path, and the same path without the
	// flight recorder, alternated request by request.
	routeCtx := func(s *serve.Service, i int) error {
		src, dst := node(i)
		_, err := s.RouteCtx(ctx, src, dst)
		return err
	}
	for i := 0; i < warm; i++ {
		_ = routeCtx(svc, i)
		_ = routeCtx(bare, i)
	}
	for i := 0; i < n; i++ {
		tr.time("serve", i, func() { err = routeCtx(svc, i) })
		if err != nil {
			return nil, nil, fmt.Errorf("RouteCtx: %w", err)
		}
		tr.time("serve.noflight", i, func() { _ = routeCtx(bare, i) })
	}
	m["serve.routectx_self_ns"] = float64(tr.self("serve", "core").Nanoseconds())
	m["serve.routectx_allocs"], _ = allocs(n, func(i int) { _ = routeCtx(svc, i) })
	on, off := tr.median("serve"), tr.median("serve.noflight")
	m["serve.flight_pct"] = 100 * float64(on-off) / float64(off)

	// serve batch: 64-pair frames of the same stream; self time per
	// route is the frame minus the core time of its pairs.
	const frame = 64
	reqs := make([]serve.Request, n)
	for i := range reqs {
		reqs[i].Src, reqs[i].Dst = node(i)
	}
	var batchSelf []time.Duration
	for f := 0; (f+1)*frame <= n; f++ {
		tr.time("serve.batch", f, func() { _, err = svc.BatchUnicastCtx(ctx, reqs[f*frame:(f+1)*frame]) })
		if err != nil {
			return nil, nil, fmt.Errorf("BatchUnicastCtx: %w", err)
		}
		d := tr.durs["serve.batch"][f]
		for i := f * frame; i < (f+1)*frame; i++ {
			d -= tr.durs["core"][i]
		}
		batchSelf = append(batchSelf, d/frame)
	}
	m["serve.batch_self_ns_per_route"] = float64(quantile(sortedDur(batchSelf), 0.5).Nanoseconds())

	// wire codec: both frames of a unicast round trip, encoded and
	// decoded once each, as client and server do.
	var reqP, respP, reqF, respF, rbuf []byte
	var rd bytes.Reader
	encode := func(i int) {
		reqP = wire.AppendUnicastReq(reqP[:0], wire.UnicastReq{Src: ps[i].Src, Dst: ps[i].Dst, DeadlineUS: 1e6})
		reqF = wire.AppendFrame(reqF[:0], wire.OpUnicast, 0, uint64(i), reqP)
		respP = wire.AppendUnicastResp(respP[:0], wire.UnicastResp{Gen: 1, FlightID: uint64(i)})
		respF = wire.AppendFrame(respF[:0], wire.OpUnicast, wire.FlagResponse, uint64(i), respP)
	}
	decode := func() error {
		var p []byte
		var err error
		rd.Reset(reqF)
		if _, p, rbuf, err = wire.ReadFrame(&rd, rbuf, wire.DefaultMaxPayload); err != nil {
			return err
		}
		if _, err = wire.ParseUnicastReq(p); err != nil {
			return err
		}
		rd.Reset(respF)
		if _, p, rbuf, err = wire.ReadFrame(&rd, rbuf, wire.DefaultMaxPayload); err != nil {
			return err
		}
		_, err = wire.ParseUnicastResp(p)
		return err
	}
	for i := 0; i < n; i++ {
		tr.time("wire.encode", i, func() { encode(i) })
		tr.time("wire.decode", i, func() { err = decode() })
		if err != nil {
			return nil, nil, fmt.Errorf("codec: %w", err)
		}
	}
	m["wire.encode_ns"] = float64(tr.median("wire.encode").Nanoseconds())
	m["wire.decode_ns"] = float64(tr.median("wire.decode").Nanoseconds())
	m["wire.codec_allocs"], _ = allocs(n, func(i int) {
		encode(i)
		_ = decode()
	})

	// wire round trip against an in-process WireServer.
	ws, err := serve.ListenWire(svc, "127.0.0.1:0", serve.WireOptions{Registry: reg})
	if err != nil {
		return nil, nil, err
	}
	defer ws.Close()
	cl, err := wire.Dial(ws.Addr(), wire.ClientOptions{Conns: 1})
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	uni := func(c *wire.Client, i int) error {
		cctx, cancel := withTimeout()
		defer cancel()
		_, err := c.Unicast(cctx, ps[i].Src, ps[i].Dst)
		return err
	}
	for i := 0; i < warm; i++ {
		_ = uni(cl, i)
	}
	for i := 0; i < n; i++ {
		tr.time("wire", i, func() { err = uni(cl, i) })
		if err != nil {
			return nil, nil, fmt.Errorf("in-process Client.Unicast: %w", err)
		}
	}
	m["wire.rtt_self_us"] = us(tr.self("wire", "serve", "wire.encode", "wire.decode"))
	m["wire.allocs_per_route"], _ = allocs(n, func(i int) { _ = uni(cl, i) })

	// coalescer: 64 callers through one Coalescer on two connections,
	// against 16-pair-or-smaller frames sent directly at the same
	// concurrency (noted: not single caller).
	if err := coalesceLayer(m, tr, reg, ws.Addr(), ps); err != nil {
		return nil, nil, err
	}

	// slserve: the HTTP handler and the whole out-of-process unicast.
	hc := httpClient(1)
	defer hc.CloseIdleConnections()
	base := "http://" + srv.httpAddr
	if err := waitHTTP(hc, base); err != nil {
		return nil, nil, err
	}
	var bodyBytes int
	for i := 0; i < warm; i++ {
		_, _, _, _ = getRoute(hc, base, in.cube, ps[i])
	}
	for i := 0; i < n; i++ {
		var nb int
		tr.time("slserve.http", i, func() { _, _, nb, err = getRoute(hc, base, in.cube, ps[i]) })
		if err != nil {
			return nil, nil, err
		}
		bodyBytes += nb
	}
	m["slserve.http_self_us"] = us(tr.self("slserve.http", "serve"))
	m["slserve.http_bytes_per_route"] = float64(bodyBytes) / float64(n)
	ext, err := wire.Dial(srv.wireAddr, wire.ClientOptions{Conns: 1})
	if err != nil {
		return nil, nil, err
	}
	defer ext.Close()
	for i := 0; i < warm; i++ {
		_ = uni(ext, i)
	}
	for i := 0; i < n; i++ {
		tr.time("slserve.wire", i, func() { err = uni(ext, i) })
		if err != nil {
			return nil, nil, fmt.Errorf("slserve Client.Unicast: %w", err)
		}
	}
	e2e := tr.median("slserve.wire")
	sum := tr.median("core") + tr.self("serve", "core") + tr.median("wire.encode") + tr.median("wire.decode") +
		tr.self("wire", "serve", "wire.encode", "wire.decode")
	m["layers.unexplained_pct"] = 100 * float64(e2e-sum) / float64(e2e)

	// Writes: the delta round trip, the applier and the repair.
	if err := writeLayers(m, tr, set, events[:min(len(events), nDeltas)], svc, cl); err != nil {
		return nil, nil, err
	}
	return m, tr, nil
}

// coalesceLayer measures Coalescer.Unicast and the coalescer's useful
// work per frame, read from the in-process service's batch counters.
func coalesceLayer(m map[string]float64, tr *tracer, reg *obs.Registry, addr string, ps []wire.Pair) error {
	cl, err := wire.Dial(addr, wire.ClientOptions{Conns: poolConns})
	if err != nil {
		return err
	}
	defer cl.Close()
	co := wire.NewCoalescer(cl, wire.CoalescerOptions{MaxBatch: coalMaxBatch})
	defer co.Close()
	n := len(ps)
	frames0, items0 := counter(reg, obs.MetricServeBatchesTotal), counter(reg, obs.MetricServeBatchItems)
	spans := make([]span, n)
	var wg sync.WaitGroup
	errs := make([]error, coalCallers)
	for c := 0; c < coalCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += coalCallers {
				ctx, cancel := withTimeout()
				t0 := time.Now()
				_, _, err := co.Unicast(ctx, ps[i].Src, ps[i].Dst)
				spans[i] = span{id: uint64(i), layer: "wire.coalesced", start: t0, end: time.Now()}
				cancel()
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("Coalescer.Unicast: %w", err)
		}
	}
	frames := counter(reg, obs.MetricServeBatchesTotal) - frames0
	items := counter(reg, obs.MetricServeBatchItems) - items0
	ppf := float64(items) / float64(max(frames, 1))
	m["wire.coalesce_pairs_per_frame"] = ppf

	// The same pairs as direct frames of the observed mean size, from
	// as many callers as the coalescer had frames in flight.
	size := max(1, int(ppf+0.5))
	callers := max(1, (coalCallers+size-1)/size)
	var flat []time.Duration
	var mu sync.Mutex
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []time.Duration
			infos := make([]wire.RouteInfo, 0, size)
			for f := c; (f+1)*size <= n; f += callers {
				ctx, cancel := withTimeout()
				t0 := time.Now()
				_, _, err := cl.Batch(ctx, ps[f*size:(f+1)*size], infos[:0])
				mine = append(mine, time.Since(t0))
				cancel()
				if err != nil {
					errs[c] = err
					return
				}
			}
			mu.Lock()
			flat = append(flat, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	for _, err := range errs[:callers] {
		if err != nil {
			return fmt.Errorf("Client.Batch: %w", err)
		}
	}
	lat := make([]time.Duration, n)
	for i, sp := range spans {
		lat[i] = sp.dur()
	}
	tr.spans = append(tr.spans, spans...)
	m["wire.coalesce_wait_us"] = us(quantile(sortedDur(lat), 0.5) - quantile(sortedDur(flat), 0.5))
	return nil
}

// writeLayers times OpFaultDelta round trips on the in-process wire
// server, TryApply+Flush on a fresh service and core.RepairLevels, each
// over the same delta prefix.
func writeLayers(m map[string]float64, tr *tracer, set *faults.Set, events []faults.ChurnEvent, svc *serve.Service, cl *wire.Client) error {
	if len(events) == 0 {
		return fmt.Errorf("no deltas to replay")
	}
	for i, ev := range events {
		var err error
		tr.time("wire.fault", i, func() {
			ctx, cancel := withTimeout()
			defer cancel()
			_, err = cl.Fault(ctx, wire.FaultReq{Kind: uint8(ev.Kind), A: uint32(ev.A), B: uint32(ev.B)})
		})
		if err != nil {
			return fmt.Errorf("in-process Client.Fault: %w", err)
		}
		svc.Flush()
	}
	m["wire.fault_rtt_us"] = us(tr.median("wire.fault"))

	fresh, err := serve.New(set, serve.Options{Registry: obs.NewRegistry()})
	if err != nil {
		return err
	}
	defer fresh.Close()
	for i, ev := range events {
		tr.time("serve.apply", i, func() {
			if err = fresh.TryApply(ev); err == nil {
				fresh.Flush()
			}
		})
		if err != nil {
			return fmt.Errorf("TryApply: %w", err)
		}
	}
	m["serve.apply_publish_us"] = us(tr.median("serve.apply"))

	local := set.Clone()
	as := core.Compute(local, core.Options{})
	for i, ev := range events {
		prev := local.Generation()
		if err := local.Apply(ev); err != nil {
			return fmt.Errorf("replay delta %d: %w", i, err)
		}
		delta, _ := local.Since(prev)
		var next *core.Assignment
		var ok bool
		tr.time("core.repair", i, func() { next, ok = core.RepairLevels(as, local, delta, core.Options{}) })
		if !ok {
			return fmt.Errorf("RepairLevels refused delta %d", i)
		}
		as = next
	}
	m["core.repair_us"] = us(tr.median("core.repair"))

	var cold []float64
	for i := 0; i < 3; i++ {
		c := set.Clone()
		tr.time("core.compute", i, func() { core.Compute(c, core.Options{}) })
		cold = append(cold, ms(tr.durs["core.compute"][i]))
	}
	m["core.compute_ms"] = medianF(cold)
	return nil
}

// writeSpans writes every span once, at the end of the run, as CSV:
// request id, layer, start and end in ns since the first span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var t0 time.Time
	if len(spans) > 0 {
		t0 = spans[0].start
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,layer,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d\n", s.id, s.layer, s.start.Sub(t0).Nanoseconds(), s.end.Sub(t0).Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
