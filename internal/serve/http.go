package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
)

// The HTTP/JSON codec over Handle: query parameters in, indented JSON
// out. Addresses use the topology's own notation (Topology.Parse and
// Format). A parameter that does not decode answers 400; every other
// refusal takes its status from the refusal table.

// MountHTTP registers the data-plane endpoints /route, /batch,
// /routeall and /fault on mux, each timed into its latency_http_*
// histogram.
func (s *Service) MountHTTP(mux *http.ServeMux) {
	mux.HandleFunc("/route", s.reg.Timed(obs.MetricLatencyHTTPRoute, s.httpHandler(OpRoute)))
	mux.HandleFunc("/batch", s.reg.Timed(obs.MetricLatencyHTTPBatch, s.httpHandler(OpBatch)))
	mux.HandleFunc("/routeall", s.reg.Timed(obs.MetricLatencyHTTPRouteAll, s.httpHandler(OpRouteAll)))
	mux.HandleFunc("/fault", s.reg.Timed(obs.MetricLatencyHTTPFault, s.httpHandler(OpFault)))
}

func (s *Service) httpHandler(op Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var c Call
		var rep Reply
		err := s.decodeQuery(op, r.URL.Query(), &c)
		if err == nil {
			err = s.Handle(r.Context(), &c, &rep)
		}
		if err != nil {
			if errors.Is(err, ErrBacklog) {
				w.Header().Set("Retry-After", "1")
			}
			obs.ServeError(w, refusalOf(err).status, err)
			return
		}
		s.writeReply(w, op, &rep)
	}
}

// decodeQuery decodes the query of an op's endpoint into c. Every
// error it returns is ErrMalformed; the first one wins.
func (s *Service) decodeQuery(op Op, q url.Values, c *Call) (err error) {
	*c = Call{Op: op}
	node := func(key string, a *topo.NodeID) {
		if err != nil {
			return
		}
		if v := q.Get(key); v == "" {
			err = malformed(fmt.Errorf("missing %q parameter", key))
		} else if *a, err = s.t.Parse(v); err != nil {
			err = malformed(err)
		}
	}
	switch op {
	case OpRoute:
		node("src", &c.Src)
		node("dst", &c.Dst)
	case OpRouteAll:
		node("src", &c.Src)
	case OpBatch:
		raw := q.Get("pairs")
		if raw == "" {
			return malformed(errors.New(`missing "pairs" parameter (want "SRC-DST,SRC-DST,...")`))
		}
		for _, item := range strings.Split(raw, ",") {
			if item = strings.TrimSpace(item); item == "" {
				continue
			}
			src, dst, ok := strings.Cut(item, "-")
			if !ok {
				return malformed(fmt.Errorf("bad pair %q, want SRC-DST", item))
			}
			var p Request
			if p.Src, err = s.t.Parse(src); err == nil {
				p.Dst, err = s.t.Parse(dst)
			}
			if err != nil {
				return malformed(err)
			}
			c.Pairs = append(c.Pairs, p)
		}
	case OpFault:
		// Churn only enqueues, so it takes no deadline.
		node("a", &c.Event.A)
		switch kind := q.Get("op"); kind {
		case "fail-node":
			c.Event.Kind = faults.DeltaFailNode
		case "recover-node":
			c.Event.Kind = faults.DeltaRecoverNode
		case "fail-link", "recover-link":
			node("b", &c.Event.B)
			c.Event.Kind = faults.DeltaFailLink
			if kind == "recover-link" {
				c.Event.Kind = faults.DeltaRecoverLink
			}
		default:
			if err == nil {
				err = malformed(fmt.Errorf("bad op %q, want fail-node, recover-node, fail-link or recover-link", kind))
			}
		}
		return err
	}
	if raw := q.Get("deadline"); raw != "" && err == nil {
		if c.Budget, err = time.ParseDuration(raw); err != nil || c.Budget <= 0 {
			err = malformed(fmt.Errorf("bad deadline %q, want a positive duration", raw))
		}
	}
	return err
}

// routeJSON is the JSON form of one route.
type routeJSON struct {
	Src       string   `json:"src"`
	Dst       string   `json:"dst"`
	Outcome   string   `json:"outcome"`
	Condition string   `json:"condition"`
	Distance  int      `json:"distance"`
	Hops      int      `json:"hops"`
	Path      []string `json:"path,omitempty"`
	Err       string   `json:"err,omitempty"`
}

func (s *Service) routeJSON(r *core.Route) routeJSON {
	out := routeJSON{
		Src:       s.t.Format(r.Source),
		Dst:       s.t.Format(r.Dest),
		Outcome:   r.Outcome.String(),
		Condition: r.Condition.String(),
		Distance:  r.Hamming,
		Hops:      r.Len(),
	}
	for _, a := range r.Path {
		out.Path = append(out.Path, s.t.Format(a))
	}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	return out
}

// routeReply is the /route body. Its fields keep the sorted key order
// the other replies get from encoding a map, and being a struct it
// spares the hottest endpoint the map's allocations.
type routeReply struct {
	Generation uint64    `json:"generation"`
	RequestID  uint64    `json:"request_id"`
	Route      routeJSON `json:"route"`
}

// writeReply encodes a served call's reply.
func (s *Service) writeReply(w http.ResponseWriter, op Op, rep *Reply) {
	if op == OpRoute {
		obs.ServeJSON(w, http.StatusOK, routeReply{rep.Gen, rep.FlightID, s.routeJSON(rep.Route)})
		return
	}
	body := map[string]any{"generation": rep.Gen}
	status := http.StatusOK
	switch op {
	case OpBatch, OpRouteAll:
		routes := make([]routeJSON, 0, len(rep.Routes))
		delivered := 0
		for _, rt := range rep.Routes {
			if rt == nil { // the fan-out source's own slot
				continue
			}
			if rt.Outcome != core.Failure {
				delivered++
			}
			routes = append(routes, s.routeJSON(rt))
		}
		body["routes"] = routes
		if op == OpRouteAll {
			body["delivered"] = delivered
		}
	case OpFault:
		// 202: churn is asynchronous; the generation advances on publish.
		status = http.StatusAccepted
		body["queued"] = true
		body["queue_depth"] = rep.QueueDepth
	}
	obs.ServeJSON(w, status, body)
}
