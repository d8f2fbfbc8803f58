package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/topo"
	"repro/internal/wire"
)

// callTimeout is the deadline of every request the generator sends.
const callTimeout = time.Second

// Delta pacing: 250 deltas/s, and enough of them that at least ten
// heal samples lie beyond p99.
const (
	deltaSpacing = 4 * time.Millisecond
	minDeltas    = 1000
)

// Caller counts of the side phases (the main phase's come from the
// workload).
const (
	coalCallers  = 64
	coalMaxBatch = 16
	httpCallers  = 2
	poolConns    = 2
)

// reply is one answered route as the server reported it, with the
// generation window it may have been computed in: lo is a generation
// this caller had already seen answered before sending, gen is the one
// the reply carries.
type reply struct {
	src, dst uint32
	info     wire.RouteInfo
	lo, gen  uint64
}

// httpReply is one answered GET /route.
type httpReply struct {
	src, dst uint32
	info     wire.RouteInfo // outcome, condition, distance and hop count
	outcome  string
	cond     string
	path     []topo.NodeID
	lo, gen  uint64
}

// span is one timed call into a layer; spans of one request share id.
type span struct {
	id         uint64
	layer      string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// A run is cut into rounds, and every round gives each phase one slice,
// always in the same order. Each phase therefore samples the whole run
// rather than one stretch of it: interference from other tenants of a
// shared host comes in bursts of seconds (on a 2-core VM, steal swung
// between 0.3% and 32% of a run, and the capacity of one run's
// one-second windows between 88k and 129k routes per CPU-second), and a
// burst costs every phase a window or two instead of ruining one
// phase. One slice is one window of its phase.
const rounds = 36

// window is what one slice of a phase measured.
type window struct {
	lat            []time.Duration // every request the slice answered
	routes         int
	srvCPU, cliCPU time.Duration
	wall           time.Duration
	steal          float64 // host steal over the slice, percent
}

// phase is one closed-loop surface: who calls it and what its slices
// measured.
type phase struct {
	name, layer         string
	callers             int
	call                func(c *caller) (int, error)
	windows             []window        // the measured slices; warm-up slices are not kept
	plainLat, tracedLat []time.Duration // traced run: requests without and with a span
	attempted, failed   int             // every slice, warm-up included
}

// leastSteal reads a figure off a phase's windows at the least host
// steal the run saw. Within one run a window's figures follow the
// host's steal over it (correlation 0.5-0.9 on a 2-core VM whose steal
// ran between 1% and 20% a run), so the run's mean steal would set the
// run's figures if every window counted alike. leastSteal fits
// v = a + b·steal over the windows (Theil-Sen: b is the median of the
// pairwise slopes, a the median of v - b·steal) and returns the fit at
// the lowest steal of any window, so it never extrapolates past the
// windows (read at zero steal, the fit of a run whose every window had
// 25% steal gave a negative p99). On ten runs of batch-q20 this cut the
// largest spread of a gated figure from 0.12 to 0.09 of its median, and
// on five busier ones from 0.14 to 0.08. With every window at the same
// steal it is the median of v. The fit uses steal, which the program
// does not control, and drops no window for its own figure.
func leastSteal(steal, v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var slopes []float64
	for i := range v {
		for j := i + 1; j < len(v); j++ {
			if steal[j] != steal[i] {
				slopes = append(slopes, (v[j]-v[i])/(steal[j]-steal[i]))
			}
		}
	}
	b := medianF(slopes)
	rest := make([]float64, len(v))
	least := math.Inf(1)
	for i := range v {
		rest[i] = v[i] - b*steal[i]
		least = math.Min(least, steal[i])
	}
	return medianF(rest) + b*least
}

// latencyOf is the q-quantile of latency at the least steal, from the
// q-quantile of each window.
func latencyOf(ws []window, q float64) time.Duration {
	var steal, v []float64
	for _, w := range ws {
		if len(w.lat) > 0 {
			steal = append(steal, w.steal)
			v = append(v, float64(quantile(sortedDur(w.lat), q)))
		}
	}
	return time.Duration(leastSteal(steal, v))
}

// latency is the q-quantile of request latency at the least steal.
func (p *phase) latency(q float64) time.Duration { return latencyOf(p.windows, q) }

// routesPerCPU is server capacity per core at the least steal: routes
// answered per second of slserve CPU.
func (p *phase) routesPerCPU() float64 {
	var steal, v []float64
	for _, w := range p.windows {
		if w.srvCPU > 0 {
			steal = append(steal, w.steal)
			v = append(v, float64(w.routes)/w.srvCPU.Seconds())
		}
	}
	return leastSteal(steal, v)
}

// total sums the measured windows.
func (p *phase) total() window {
	var t window
	for _, w := range p.windows {
		t.routes += w.routes
		t.srvCPU += w.srvCPU
		t.cliCPU += w.cliCPU
		t.wall += w.wall
	}
	return t
}

// caller is one closed-loop caller's private state.
type caller struct {
	t       *target
	pairs   *pairGen
	lo      uint64
	replies []reply
	http    []httpReply
	idx     int
	lat     []time.Duration
	plain   []time.Duration
	traced  []time.Duration
	spans   []span
	routes  int
	tried   int
	failed  int
	buf     []wire.Pair
	infos   []wire.RouteInfo
	stream  uint64
}

// target is one running slserve and the clients the phases use on it.
type target struct {
	srv *server
	// pool is the shared two-connection client of the unicast,
	// coalesced and delta traffic.
	pool *wire.Client
	// clients are the batch workload's main callers, one connection
	// each.
	clients []*wire.Client
	co      *wire.Coalescer
	hc      *http.Client
	base    string
	// lo is the highest generation this server has answered with: a
	// lower bound on the generation any later request to it is served
	// from.
	lo uint64
}

// dial opens every client the phases use on srv, which serves the boot
// fault set.
func (d *driver) dial(srv *server) (*target, error) {
	t := &target{srv: srv, hc: httpClient(httpCallers), base: "http://" + srv.httpAddr, lo: d.in.initial.Generation()}
	pool, err := wire.Dial(srv.wireAddr, wire.ClientOptions{Conns: poolConns})
	if err != nil {
		return nil, err
	}
	t.pool = pool
	t.co = wire.NewCoalescer(pool, wire.CoalescerOptions{MaxBatch: coalMaxBatch})
	if d.in.w.batch > 0 {
		for i := 0; i < d.in.w.callers; i++ {
			cl, err := wire.Dial(srv.wireAddr, wire.ClientOptions{Conns: 1})
			if err != nil {
				t.close()
				return nil, err
			}
			t.clients = append(t.clients, cl)
		}
	}
	if err := waitHTTP(t.hc, t.base); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

// close closes every client of the target; the server keeps running.
func (t *target) close() {
	t.co.Close()
	for _, cl := range t.clients {
		cl.Close()
	}
	t.pool.Close()
	t.hc.CloseIdleConnections()
}

// driver runs the end-to-end phases of one workload against its
// servers.
type driver struct {
	in      *inputs
	trace   bool
	stream  uint64
	replies []reply
	http    []httpReply
	spans   []span
}

func (d *driver) newCaller(t *target) *caller {
	d.stream++
	return &caller{t: t, pairs: d.in.pairs(d.stream), lo: t.lo, stream: d.stream}
}

// collect folds finished callers into the driver's records.
func (d *driver) collect(p *phase, cs []*caller) {
	for _, c := range cs {
		p.plainLat = append(p.plainLat, c.plain...)
		p.tracedLat = append(p.tracedLat, c.traced...)
		p.attempted += c.tried
		p.failed += c.failed
		d.replies = append(d.replies, c.replies...)
		d.http = append(d.http, c.http...)
		d.spans = append(d.spans, c.spans...)
		c.t.lo = max(c.t.lo, c.lo)
	}
}

// slice runs the phase's callers against t for dur, each sending its
// next request as soon as the previous one is answered, and adds the
// slice's window to the phase when measure is set. The generator's heap
// is collected before the slice starts, and the run keeps the collector
// off while slices run, so the generator's own garbage collection never
// runs inside a window. p.call returns the number of routes the request
// carried and whether it failed. In a traced run every other request
// also records a span, so the traced and untraced latencies of one
// phase can be compared.
func (d *driver) slice(p *phase, t *target, dur time.Duration, measure bool) {
	cs := make([]*caller, p.callers)
	for i := range cs {
		cs[i] = d.newCaller(t)
		cs[i].idx = i
	}
	runtime.GC()
	st0 := readCPUStat()
	cpu0, _ := procCPU(t.srv.pid)
	self0 := selfCPU()
	start := time.Now()
	stopAt := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			for i := 0; time.Now().Before(stopAt); i++ {
				t0 := time.Now()
				k, err := p.call(c)
				t1 := time.Now()
				c.tried += k
				if err != nil {
					c.failed += k
					continue
				}
				c.routes += k
				c.lat = append(c.lat, t1.Sub(t0))
				switch {
				case !d.trace:
				case i%2 == 1:
					c.spans = append(c.spans, span{id: c.stream<<32 | uint64(i), layer: p.layer, start: t0, end: t1})
					c.traced = append(c.traced, t1.Sub(t0))
				default:
					c.plain = append(c.plain, t1.Sub(t0))
				}
			}
		}(c)
	}
	wg.Wait()
	cpu1, _ := procCPU(t.srv.pid)
	w := window{srvCPU: cpu1 - cpu0, cliCPU: selfCPU() - self0, wall: time.Since(start), steal: stealPct(st0, readCPUStat())}
	for _, c := range cs {
		w.lat = append(w.lat, c.lat...)
		w.routes += c.routes
	}
	if measure {
		p.windows = append(p.windows, w)
	}
	d.collect(p, cs)
}

func withTimeout() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), callTimeout)
}

// unicast sends one OpUnicast through the pool and records the reply.
func (d *driver) unicast(c *caller) (int, error) {
	q := c.pairs.next()
	ctx, cancel := withTimeout()
	defer cancel()
	r, err := c.t.pool.Unicast(ctx, q.Src, q.Dst)
	if err != nil {
		return 1, err
	}
	c.replies = append(c.replies, reply{src: q.Src, dst: q.Dst, info: r.Route, lo: c.lo, gen: r.Gen})
	c.lo = max(c.lo, r.Gen)
	return 1, nil
}

// mainPhase is the workload's defining load: 64-pair batch frames on
// one connection per caller, or single unicasts pipelined over the
// shared pool.
func (d *driver) mainPhase() *phase {
	w := d.in.w
	if w.batch == 0 {
		return &phase{name: "wire", layer: "client.unicast", callers: w.callers, call: d.unicast}
	}
	return &phase{name: "wire", layer: "client.batch", callers: w.callers, call: func(c *caller) (int, error) {
		if c.buf == nil {
			c.buf = make([]wire.Pair, w.batch)
			c.infos = make([]wire.RouteInfo, 0, w.batch)
		}
		pairs := c.pairs.fill(c.buf)
		ctx, cancel := withTimeout()
		defer cancel()
		gen, infos, err := c.t.clients[c.idx].Batch(ctx, pairs, c.infos[:0])
		if err != nil {
			return len(pairs), err
		}
		if len(infos) != len(pairs) {
			return len(pairs), fmt.Errorf("batch answered %d of %d pairs", len(infos), len(pairs))
		}
		c.infos = infos
		for i, q := range pairs {
			c.replies = append(c.replies, reply{src: q.Src, dst: q.Dst, info: infos[i], lo: c.lo, gen: gen})
		}
		c.lo = max(c.lo, gen)
		return len(pairs), nil
	}}
}

// coalescedPhase sends single routes from 64 callers through one
// Coalescer over the shared pool.
func (d *driver) coalescedPhase() *phase {
	return &phase{name: "coalesced", layer: "client.coalesced", callers: coalCallers, call: func(c *caller) (int, error) {
		q := c.pairs.next()
		ctx, cancel := withTimeout()
		defer cancel()
		info, gen, err := c.t.co.Unicast(ctx, q.Src, q.Dst)
		if err != nil {
			return 1, err
		}
		c.replies = append(c.replies, reply{src: q.Src, dst: q.Dst, info: info, lo: c.lo, gen: gen})
		c.lo = max(c.lo, gen)
		return 1, nil
	}}
}

// routeBody is slserve's GET /route answer.
type routeBody struct {
	Generation uint64 `json:"generation"`
	Route      struct {
		Outcome   string   `json:"outcome"`
		Condition string   `json:"condition"`
		Distance  int      `json:"distance"`
		Hops      int      `json:"hops"`
		Path      []string `json:"path"`
	} `json:"route"`
}

// httpClient keeps at most n keep-alive connections to the server.
func httpClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: n,
		MaxConnsPerHost:     n,
		DisableCompression:  true,
	}}
}

// getRoute performs one GET /route and parses the answer.
func getRoute(hc *http.Client, base string, cube *topo.Cube, q wire.Pair) (routeBody, []topo.NodeID, int, error) {
	ctx, cancel := withTimeout()
	defer cancel()
	url := base + "/route?src=" + cube.Format(topo.NodeID(q.Src)) + "&dst=" + cube.Format(topo.NodeID(q.Dst))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return routeBody{}, nil, 0, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return routeBody{}, nil, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return routeBody{}, nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return routeBody{}, nil, len(body), fmt.Errorf("GET /route: %s", resp.Status)
	}
	var rb routeBody
	if err := json.Unmarshal(body, &rb); err != nil {
		return routeBody{}, nil, len(body), fmt.Errorf("GET /route: %w", err)
	}
	path := make([]topo.NodeID, len(rb.Route.Path))
	for i, s := range rb.Route.Path {
		a, err := cube.Parse(s)
		if err != nil {
			return routeBody{}, nil, len(body), fmt.Errorf("GET /route path: %w", err)
		}
		path[i] = a
	}
	return rb, path, len(body), nil
}

// waitHTTP waits until the server's HTTP surface answers /healthz.
func waitHTTP(hc *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("http surface not ready: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// httpPhase sends GET /route from two callers on two keep-alive
// connections.
func (d *driver) httpPhase() *phase {
	return &phase{name: "http", layer: "client.http", callers: httpCallers, call: func(c *caller) (int, error) {
		q := c.pairs.next()
		rb, path, _, err := getRoute(c.t.hc, c.t.base, d.in.cube, q)
		if err != nil {
			return 1, err
		}
		c.http = append(c.http, httpReply{
			src: q.Src, dst: q.Dst, outcome: rb.Route.Outcome, cond: rb.Route.Condition,
			info: wire.RouteInfo{Hamming: uint16(rb.Route.Distance), Hops: uint16(rb.Route.Hops)},
			path: path, lo: c.lo, gen: rb.Generation,
		})
		c.lo = max(c.lo, rb.Generation)
		return 1, nil
	}}
}

// deltaStats is what the open-loop fault-delta stream measured.
type deltaStats struct {
	accepted          []faults.ChurnEvent
	attempted, failed int // deltas
	polls, pollFailed int // heal-poll routes
	backlog           int // deltas refused as backlog
	heal, late        []time.Duration
	// ack holds the OpFaultDelta round trips of each measured slice.
	ack   []window
	spans []span
}

// deltaSender streams the schedule as OpFaultDelta frames to one
// server. After each accepted delta it polls single routes until a
// reply carries a generation that includes it; heal time runs from the
// send, so pacer lateness (recorded separately) does not enter it.
type deltaSender struct {
	d    *driver
	st   *deltaStats
	c    *caller
	gen0 uint64
	next int // index of the next schedule event
}

// newDeltaSender streams the schedule to t.
func (d *driver) newDeltaSender(t *target) *deltaSender {
	return &deltaSender{d: d, st: &deltaStats{}, c: d.newCaller(t), gen0: t.lo}
}

// slice sends the next deltas, one due every deltaSpacing from now,
// until dur has passed and at least minCount have been sent in all; a
// measured slice adds a window of ack times.
func (s *deltaSender) slice(dur time.Duration, minCount int, measure bool) {
	st, c, schedule := s.st, s.c, s.d.in.schedule
	runtime.GC()
	st0 := readCPUStat()
	var acks []time.Duration
	start := time.Now()
	for j := 0; s.next < len(schedule); j++ {
		if st.attempted >= minCount && time.Since(start) >= dur {
			break
		}
		ev := schedule[s.next]
		s.next++
		due := start.Add(time.Duration(j) * deltaSpacing)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		sent := time.Now()
		st.late = append(st.late, sent.Sub(due))
		st.attempted++
		ctx, cancel := withTimeout()
		_, err := c.t.pool.Fault(ctx, wire.FaultReq{Kind: uint8(ev.Kind), A: uint32(ev.A), B: uint32(ev.B)})
		cancel()
		acked := time.Now()
		if err != nil {
			st.failed++
			if errors.Is(err, wire.ErrBacklog) {
				st.backlog++
			}
			continue
		}
		acks = append(acks, acked.Sub(sent))
		st.accepted = append(st.accepted, ev)
		if s.d.trace {
			st.spans = append(st.spans, span{id: uint64(s.next), layer: "client.fault", start: sent, end: acked})
		}
		target := s.gen0 + uint64(len(st.accepted))
		healed := false
		for !healed && time.Since(sent) < callTimeout {
			st.polls++
			q := c.pairs.next()
			ctx, cancel := withTimeout()
			r, err := c.t.pool.Unicast(ctx, q.Src, q.Dst)
			cancel()
			if err != nil {
				st.pollFailed++
				continue
			}
			c.replies = append(c.replies, reply{src: q.Src, dst: q.Dst, info: r.Route, lo: c.lo, gen: r.Gen})
			c.lo = max(c.lo, r.Gen)
			if r.Gen >= target {
				st.heal = append(st.heal, time.Since(sent))
				healed = true
			}
		}
		if !healed {
			st.failed++
		}
	}
	if measure {
		st.ack = append(st.ack, window{lat: acks, steal: stealPct(st0, readCPUStat())})
	}
}

// finish folds the sender's poll replies and spans into the driver's
// records and returns what the stream measured.
func (s *deltaSender) finish() *deltaStats {
	d := s.d
	d.replies = append(d.replies, s.c.replies...)
	d.spans = append(d.spans, s.st.spans...)
	s.c.t.lo = max(s.c.t.lo, s.c.lo)
	s.c.replies = nil
	return s.st
}

// durations helpers.

func sortedDur(v []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank quantile of an ascending slice.
func quantile(s []time.Duration, q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(len(s)-1, i))
	return s[i]
}

func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// describe renders a phase for the human-readable log.
func (p *phase) describe() string {
	t := p.total()
	return fmt.Sprintf("%-10s %8d windows %9d routes %5d failed  p50 %8.1fus p99 %8.1fus  slserve cpu %6.3fs  %10.0f routes/cpu-s  %8.0f routes/s",
		p.name, len(p.windows), t.routes, p.failed, us(p.latency(0.5)), us(p.latency(0.99)),
		t.srvCPU.Seconds(), p.routesPerCPU(), float64(t.routes)/t.wall.Seconds()) + p.windowLog()
}

// windowLog lists each window's steal, p50 and capacity, so that the
// fit behind a run's figures can be checked from its log.
func (p *phase) windowLog() string {
	var b strings.Builder
	b.WriteString("\n    steal %: ")
	for _, w := range p.windows {
		fmt.Fprintf(&b, " %.1f", w.steal)
	}
	b.WriteString("\n    p50 us:  ")
	for _, w := range p.windows {
		fmt.Fprintf(&b, " %.0f", us(quantile(sortedDur(w.lat), 0.5)))
	}
	b.WriteString("\n    routes/cpu-s:")
	for _, w := range p.windows {
		fmt.Fprintf(&b, " %.0f", float64(w.routes)/w.srvCPU.Seconds())
	}
	return b.String()
}
