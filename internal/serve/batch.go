package serve

import (
	"context"

	"repro/internal/core"
	"repro/internal/topo"
)

// Batched queries. A batch pins ONE snapshot for all of its requests,
// so the answers are mutually consistent (all computed against the same
// fault generation) no matter how many swaps land while the batch runs.
// Requests are spread over a worker pool sized by Options.Workers
// (GOMAXPROCS by default); because the snapshot router is deterministic
// (fixed tie-break, immutable levels), the result slice is element-wise
// identical to routing the requests sequentially — the property the
// batch tests pin across both topology families.

// BatchUnicast answers every request against one snapshot and returns
// the routes in request order. It never blocks on churn.
func (s *Service) BatchUnicast(reqs []Request) []*core.Route {
	sn := s.cur.Load()
	s.batchM.calls.Inc()
	s.batchM.items.Add(int64(len(reqs)))
	if len(s.queue) > 0 {
		s.mStale.Inc()
	}
	return sn.BatchUnicast(reqs, s.workers)
}

// BatchUnicast answers every request pinned to this snapshot, fanned
// over at most workers goroutines (<= 1 means sequential).
func (sn *Snapshot) BatchUnicast(reqs []Request, workers int) []*core.Route {
	out, _ := sn.batchUnicastCtx(context.Background(), reqs, workers)
	return out
}

// RouteAll fans one source out to every other node of the topology
// against one snapshot: the serving-layer analogue of a broadcast
// reachability sweep. The result is indexed by destination node ID;
// the source's own slot is nil.
func (s *Service) RouteAll(src topo.NodeID) []*core.Route {
	sn := s.cur.Load()
	reqs := s.fanout(src)
	s.fanoutM.calls.Inc()
	s.fanoutM.items.Add(int64(len(reqs)))
	return s.byDest(reqs, sn.BatchUnicast(reqs, s.workers))
}

// fanout lists the requests of a fan-out from src: every other node in
// ascending order.
func (s *Service) fanout(src topo.NodeID) []Request {
	nodes := s.t.Nodes()
	reqs := make([]Request, 0, nodes-1)
	for a := 0; a < nodes; a++ {
		if topo.NodeID(a) != src {
			reqs = append(reqs, Request{Src: src, Dst: topo.NodeID(a)})
		}
	}
	return reqs
}

// byDest indexes a fan-out's routes by destination.
func (s *Service) byDest(reqs []Request, routes []*core.Route) []*core.Route {
	out := make([]*core.Route, s.t.Nodes())
	for i, q := range reqs {
		out[q.Dst] = routes[i]
	}
	return out
}
