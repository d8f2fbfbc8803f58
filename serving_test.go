package safecube

import (
	"context"
	"fmt"
	"testing"
)

// TestServeFacadeCube checks the public Server wrapper end to end on
// the binary facade: parity with direct Unicast, batch order, fan-out
// indexing, async churn with Flush, and the re-exported metrics.
func TestServeFacadeCube(t *testing.T) {
	c := MustNew(5)
	if err := c.FailNodes(3, 17, 24); err != nil {
		t.Fatal(err)
	}
	if err := c.FailLink(0, 1); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	srv, err := c.Serve(ServeOptions{Registry: reg, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	checkServeParity(t, c, srv)

	// Batch answers in request order; fan-out indexed by destination.
	pairs := []TrafficPair{{0, 31}, {2, 9}, {31, 0}}
	routes := srv.BatchUnicast(pairs)
	if len(routes) != len(pairs) {
		t.Fatalf("batch returned %d routes, want %d", len(routes), len(pairs))
	}
	for i, p := range pairs {
		if routes[i].Source != p.Src || routes[i].Dest != p.Dst {
			t.Fatalf("batch slot %d answered %d->%d, want %d->%d",
				i, routes[i].Source, routes[i].Dest, p.Src, p.Dst)
		}
	}
	all := srv.RouteAll(0)
	if len(all) != c.Nodes() {
		t.Fatalf("RouteAll returned %d slots, want %d", len(all), c.Nodes())
	}
	if all[0] != nil {
		t.Fatal("RouteAll source slot not nil")
	}
	if all[9] == nil || all[9].Dest != 9 {
		t.Fatal("RouteAll slot 9 missing or misindexed")
	}

	// Churn is async but Flush-bounded, and the server's fault state is
	// decoupled from the originating cube's.
	gen := srv.Generation()
	if err := srv.RecoverNode(3); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	if srv.Generation() <= gen {
		t.Fatalf("generation did not advance past %d", gen)
	}
	if srv.Unicast(3, 0).Outcome == Failure && c.Connected() {
		t.Fatal("recovered node still unroutable")
	}
	if !c.NodeFaulty(3) {
		t.Fatal("server churn leaked into the facade's fault set")
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		MetricServeSnapshotGen, MetricServeSwapsTotal, MetricServeRoutesTotal,
		MetricServeBatchesTotal, MetricServeApplyTotal,
	} {
		if _, ok := snap.Counters[name]; !ok {
			if _, ok := snap.Gauges[name]; !ok {
				t.Fatalf("metric %q missing from registry snapshot", name)
			}
		}
	}

	srv.Close() // idempotent
	if err := srv.FailNode(1); err != ErrServerClosed {
		t.Fatalf("mutator after Close: got %v, want ErrServerClosed", err)
	}
}

// checkServeParity checks that srv answers every pair, admission test
// and level exactly like the facade c it was started from.
func checkServeParity(t *testing.T, c *Cube, srv *Server) {
	t.Helper()
	lv := c.ComputeLevels()
	for s := 0; s < c.Nodes(); s++ {
		if got, want := srv.Level(NodeID(s)), lv.Level(NodeID(s)); got != want {
			t.Fatalf("node %d: server level %d, facade level %d", s, got, want)
		}
		for d := 0; d < c.Nodes(); d++ {
			got := srv.Unicast(NodeID(s), NodeID(d))
			want := c.Unicast(NodeID(s), NodeID(d))
			if got.Outcome != want.Outcome || got.Condition != want.Condition ||
				got.Hamming != want.Hamming || fmt.Sprint(got.Path) != fmt.Sprint(want.Path) {
				t.Fatalf("route %d->%d: server %+v, facade %+v", s, d, got, want)
			}
			cond, out := srv.Feasibility(NodeID(s), NodeID(d))
			if wc, wo := c.Feasibility(NodeID(s), NodeID(d)); cond != wc || out != wo {
				t.Fatalf("feasibility %d->%d: server (%v,%v), facade (%v,%v)", s, d, cond, out, wc, wo)
			}
		}
	}
}

// TestServeFacadeGeneralized checks that the same Server serves a
// generalized hypercube.
func TestServeFacadeGeneralized(t *testing.T) {
	g := MustNewGeneralized(2, 3, 4)
	if err := g.FailNodes(5, 11); err != nil {
		t.Fatal(err)
	}
	srv, err := g.Serve(ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	checkServeParity(t, g, srv)
}

// TestServeRouteGeneration checks that served routes carry the
// generation of the snapshot they were routed on; facade routes carry 0.
func TestServeRouteGeneration(t *testing.T) {
	c := MustNew(5)
	srv, err := c.Serve(ServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.FailNode(7); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	ctxRoute, err := srv.UnicastCtx(context.Background(), 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	gen := srv.Generation()
	for _, r := range append(srv.BatchUnicast([]TrafficPair{{0, 31}}), srv.Unicast(0, 31), ctxRoute) {
		if gen == 0 || r.Generation != gen {
			t.Errorf("served route generation %d, want %d (nonzero)", r.Generation, gen)
		}
	}
	if r := c.Unicast(0, 31); r.Generation != 0 {
		t.Errorf("facade route generation %d, want 0", r.Generation)
	}
}
