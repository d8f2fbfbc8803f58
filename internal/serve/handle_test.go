package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topo"
	"repro/internal/wire"
)

// transportPair is two identically seeded Q6 services, one behind the
// HTTP codec and one behind the wire server.
type transportPair struct {
	t          *testing.T
	tp         topo.Topology
	httpSvc    *Service
	wireSvc    *Service
	base       string
	client     *wire.Client
	idle       bool
	lastStatus int
}

// newTransportPair builds the pair. An idle pair runs no applier, so a
// fault it accepts stays queued and the next one meets a full queue.
func newTransportPair(t *testing.T, opts Options, idle bool, failed []topo.NodeID) *transportPair {
	t.Helper()
	p := &transportPair{t: t, tp: topo.MustCube(6), idle: idle}
	start := func() *Service {
		set := faults.NewSet(p.tp)
		if err := set.FailNodes(failed...); err != nil {
			t.Fatal(err)
		}
		newSvc := New
		if idle {
			newSvc = build
		}
		s, err := newSvc(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	p.httpSvc, p.wireSvc = start(), start()
	mux := http.NewServeMux()
	p.httpSvc.MountHTTP(mux)
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	p.base = hs.URL
	ws, err := ListenWire(p.wireSvc, "127.0.0.1:0", WireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ws.Close() })
	c, err := wire.Dial(ws.Addr(), wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	p.client = c
	return p
}

// answer is one transport's answer to a call: its refusal class (the
// wire code, 0 when served) and the routes it carried.
type answer struct {
	Class  wire.ErrCode
	Gen    uint64
	Routes []routeKey
}

type routeKey struct {
	Outcome, Condition string
	Distance, Hops     int
}

// do sends c over both transports, requires identical answers and
// returns the refusal class.
func (p *transportPair) do(c Call) wire.ErrCode {
	p.t.Helper()
	h, w := p.viaHTTP(c), p.viaWire(c)
	if !reflect.DeepEqual(h, w) {
		p.t.Fatalf("op %d (src %d dst %d, %d pairs, event %v, budget %v): HTTP %+v (status %d), wire %+v",
			c.Op, c.Src, c.Dst, len(c.Pairs), c.Event, c.Budget, h, p.lastStatus, w)
	}
	if !p.idle {
		p.httpSvc.Flush()
		p.wireSvc.Flush()
	}
	return h.Class
}

// want sends c over both transports and requires the refusal class
// code (0: served) on each.
func (p *transportPair) want(c Call, code wire.ErrCode) {
	p.t.Helper()
	if got := p.do(c); got != code {
		p.t.Fatalf("op %d: class %v on both transports, want %v", c.Op, got, code)
	}
}

func (p *transportPair) viaHTTP(c Call) answer {
	p.t.Helper()
	q := url.Values{}
	var path string
	switch c.Op {
	case OpRoute:
		path = "/route"
		q.Set("src", p.tp.Format(c.Src))
		q.Set("dst", p.tp.Format(c.Dst))
	case OpRouteAll:
		path = "/routeall"
		q.Set("src", p.tp.Format(c.Src))
	case OpBatch:
		path = "/batch"
		specs := make([]string, len(c.Pairs))
		for i, r := range c.Pairs {
			specs[i] = p.tp.Format(r.Src) + "-" + p.tp.Format(r.Dst)
		}
		q.Set("pairs", strings.Join(specs, ","))
	case OpFault:
		path = "/fault"
		q.Set("op", c.Event.Kind.String())
		q.Set("a", p.tp.Format(c.Event.A))
		if c.Event.Kind == faults.DeltaFailLink || c.Event.Kind == faults.DeltaRecoverLink {
			q.Set("b", p.tp.Format(c.Event.B))
		}
	}
	if c.Budget > 0 {
		q.Set("deadline", c.Budget.String())
	}
	resp, err := http.Get(p.base + path + "?" + q.Encode())
	if err != nil {
		p.t.Fatal(err)
	}
	defer resp.Body.Close()
	p.lastStatus = resp.StatusCode
	var body struct {
		Generation uint64      `json:"generation"`
		Route      *routeJSON  `json:"route"`
		Routes     []routeJSON `json:"routes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		p.t.Fatalf("GET %s: bad JSON: %v", path, err)
	}
	if err := StatusErr(resp.StatusCode, c.Op == OpFault); err != nil {
		return answer{Class: refusalOf(err).code}
	}
	if c.Op == OpFault {
		// The acknowledged generation races the applier; only the
		// class is deterministic.
		return answer{}
	}
	a := answer{Gen: body.Generation}
	if body.Route != nil {
		body.Routes = append(body.Routes, *body.Route)
	}
	for _, r := range body.Routes {
		a.Routes = append(a.Routes, routeKey{r.Outcome, r.Condition, r.Distance, r.Hops})
	}
	return a
}

func (p *transportPair) viaWire(c Call) answer {
	p.t.Helper()
	ctx := context.Background()
	if c.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Budget)
		defer cancel()
	}
	var a answer
	var infos []wire.RouteInfo
	var err error
	switch c.Op {
	case OpRoute:
		var r wire.UnicastResp
		r, err = p.client.Unicast(ctx, uint32(c.Src), uint32(c.Dst))
		a.Gen, infos = r.Gen, []wire.RouteInfo{r.Route}
	case OpBatch, OpRouteAll:
		// The wire protocol has no fan-out opcode; a fan-out is the
		// batch of every other destination in ascending order.
		var pairs []wire.Pair
		for _, r := range c.Pairs {
			pairs = append(pairs, wire.Pair{Src: uint32(r.Src), Dst: uint32(r.Dst)})
		}
		if c.Op == OpRouteAll {
			for d := 0; d < p.tp.Nodes(); d++ {
				if topo.NodeID(d) != c.Src {
					pairs = append(pairs, wire.Pair{Src: uint32(c.Src), Dst: uint32(d)})
				}
			}
		}
		a.Gen, infos, err = p.client.Batch(ctx, pairs, nil)
	case OpFault:
		_, err = p.client.Fault(ctx, wire.FaultReq{Kind: uint8(c.Event.Kind), A: uint32(c.Event.A), B: uint32(c.Event.B)})
	}
	if err != nil {
		for code := wire.CodeBadRequest; code <= wire.CodeInternal; code++ {
			if errors.Is(err, code.Err()) {
				return answer{Class: code}
			}
		}
		p.t.Fatalf("wire: unclassified error %v", err)
	}
	for _, r := range infos {
		a.Routes = append(a.Routes, routeKey{
			core.Outcome(r.Outcome).String(), core.Condition(r.Cond).String(), int(r.Hamming), int(r.Hops),
		})
	}
	return a
}

// TestTransportEquivalence runs one seeded op stream over HTTP and over
// the wire protocol against identically seeded services: both must
// give identical refusal classes and identical routes, through good
// traffic, churn, bad input, a full churn queue, a closed service, an
// overloaded one and an expired deadline ceiling.
func TestTransportEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	node := func() topo.NodeID { return topo.NodeID(rng.Intn(64)) }
	var failed []topo.NodeID
	for len(failed) < 5 {
		failed = append(failed, node())
	}
	big := make([]Request, MaxBatch+1)
	for i := range big {
		big[i] = Request{Src: topo.NodeID(i % 64), Dst: topo.NodeID(i * 7 % 64)}
	}
	route := Call{Op: OpRoute, Src: 1, Dst: 62}
	batch := Call{Op: OpBatch, Pairs: []Request{{0, 63}, {5, 5}, {7, 56}}}
	fault := Call{Op: OpFault, Event: faults.ChurnEvent{Kind: faults.DeltaFailNode, A: 9}}

	t.Run("stream", func(t *testing.T) {
		p := newTransportPair(t, Options{}, false, failed)
		served := 0
		for i := 0; i < 80; i++ {
			var c Call
			switch rng.Intn(6) {
			case 0, 1:
				c = Call{Op: OpRoute, Src: node(), Dst: node()}
			case 2:
				c = Call{Op: OpBatch}
				for n := 1 + rng.Intn(8); n > 0; n-- {
					c.Pairs = append(c.Pairs, Request{Src: node(), Dst: node()})
				}
			case 3:
				c = Call{Op: OpRouteAll, Src: node()}
			case 4:
				kind := faults.DeltaFailNode
				if rng.Intn(2) == 0 {
					kind = faults.DeltaRecoverNode
				}
				c = Call{Op: OpFault, Event: faults.ChurnEvent{Kind: kind, A: node()}}
			case 5:
				kind := faults.DeltaFailLink
				if rng.Intn(2) == 0 {
					kind = faults.DeltaRecoverLink
				}
				a := node()
				c = Call{Op: OpFault, Event: faults.ChurnEvent{Kind: kind, A: a, B: a ^ 1<<rng.Intn(6)}}
			}
			if c.Op != OpFault && rng.Intn(3) == 0 {
				c.Budget = 10 * time.Second
			}
			if p.do(c) == 0 {
				served++
			}
		}
		if served < 60 {
			t.Fatalf("only %d of 80 stream ops served", served)
		}
		p.want(Call{Op: OpRoute, Src: 64, Dst: 0}, wire.CodeBadRequest)
		p.want(Call{Op: OpFault, Event: faults.ChurnEvent{Kind: faults.DeltaFailLink, A: 0, B: 3}}, wire.CodeBadRequest)
		p.want(Call{Op: OpBatch, Pairs: big}, wire.CodeTooLarge)
		p.want(Call{Op: OpBatch, Pairs: big[:MaxBatch]}, 0)
	})
	t.Run("full-queue", func(t *testing.T) {
		p := newTransportPair(t, Options{QueueDepth: 1}, true, failed)
		p.want(fault, 0)
		p.want(Call{Op: OpFault, Event: faults.ChurnEvent{Kind: faults.DeltaFailNode, A: 10}}, wire.CodeBacklog)
		p.want(route, 0)
	})
	t.Run("closed", func(t *testing.T) {
		p := newTransportPair(t, Options{}, false, failed)
		p.httpSvc.Close()
		p.wireSvc.Close()
		for _, c := range []Call{route, batch, {Op: OpRouteAll, Src: 3}, fault} {
			p.want(c, wire.CodeDraining)
		}
	})
	t.Run("overloaded", func(t *testing.T) {
		p := newTransportPair(t, Options{Rate: 1e-9, Burst: 1}, false, failed)
		p.want(route, 0)
		p.want(route, wire.CodeOverload)
		p.want(batch, wire.CodeOverload)
		p.want(fault, 0)
	})
	t.Run("deadline-ceiling", func(t *testing.T) {
		p := newTransportPair(t, Options{Deadline: time.Nanosecond}, false, failed)
		for _, c := range []Call{route, batch, {Op: OpRouteAll, Src: 3}} {
			p.want(c, wire.CodeDeadline)
		}
		p.want(fault, 0)
	})
}
