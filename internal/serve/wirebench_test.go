package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/wire"
)

// The wire-vs-HTTP serving benchmarks. Both sides drive the SAME Q10
// engine over real sockets from parallel clients, one route per op, so
// ns/op is directly an inverse req/s-per-core: BENCH_8.json's scenario
// in the repo-root bench ledger (bench_ledger_test.go) records the
// ratio and checks the >= 5x data-plane claim, and bench-gate watches
// these for regressions.

// benchWireServer binds a wire server to the bench service.
func benchWireServer(b *testing.B, opts WireOptions) *WireServer {
	b.Helper()
	svc := benchService(b, Options{})
	ws, err := ListenWire(svc, "127.0.0.1:0", opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ws.Close() })
	return ws
}

// benchHTTPServer exposes the bench service through the handlers
// cmd/slserve serves (MountHTTP), and returns each node's address in
// the topology's notation so clients build the same URLs slserve's do.
func benchHTTPServer(b *testing.B) (*httptest.Server, []string) {
	b.Helper()
	svc := benchService(b, Options{})
	mux := http.NewServeMux()
	svc.MountHTTP(mux)
	hs := httptest.NewServer(mux)
	b.Cleanup(hs.Close)
	addrs := make([]string, svc.Topology().Nodes())
	for i := range addrs {
		addrs[i] = svc.Topology().Format(topo.NodeID(i))
	}
	return hs, addrs
}

// BenchmarkServeWire is the headline data-plane number: parallel
// callers issuing single unicasts through the coalescing client, which
// merges them into pipelined OpBatch frames on pooled connections —
// the deployment shape cmd/slload -wire -coalesce drives.
func BenchmarkServeWire(b *testing.B) {
	ws := benchWireServer(b, WireOptions{})
	c, err := wire.Dial(ws.Addr(), wire.ClientOptions{Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	// MaxBatch matches the caller count below: batches flush the moment
	// a full wave of callers has enqueued instead of waiting out the
	// linger timer (32 parallel callers per GOMAXPROCS, batch of 32, so
	// this holds at any core count).
	co := wire.NewCoalescer(c, wire.CoalescerOptions{MaxBatch: 32, MaxDelay: 100 * time.Microsecond})
	defer co.Close()

	ctx := context.Background()
	b.SetParallelism(32) // coalescing needs concurrent callers to merge
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint32(0)
		for pb.Next() {
			i++
			if _, _, err := co.Unicast(ctx, i%1024, (i*7)%1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeWireUnpipelined is the same workload without the
// coalescer: one request frame per op, still multiplexed on pooled
// connections. The gap to BenchmarkServeWire is what client-side
// batching buys.
func BenchmarkServeWireUnpipelined(b *testing.B) {
	ws := benchWireServer(b, WireOptions{})
	c, err := wire.Dial(ws.Addr(), wire.ClientOptions{Conns: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := uint32(0)
		for pb.Next() {
			i++
			if _, err := c.Unicast(ctx, i%1024, (i*7)%1024); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeWireBatch measures explicit 64-pair batch frames —
// the per-route floor of the wire path.
func BenchmarkServeWireBatch(b *testing.B) {
	ws := benchWireServer(b, WireOptions{})
	c, err := wire.Dial(ws.Addr(), wire.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	const batch = 64
	pairs := make([]wire.Pair, batch)
	for i := range pairs {
		pairs[i] = wire.Pair{Src: uint32(i * 3 % 1024), Dst: uint32(i * 11 % 1024)}
	}
	ctx := context.Background()
	routes := make([]wire.RouteInfo, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, out, err := c.Batch(ctx, pairs, routes)
		if err != nil || len(out) != batch {
			b.Fatal(err)
		}
		routes = out
	}
	b.StopTimer()
	// Report per-route cost so the number is comparable to the
	// single-unicast benchmarks above.
	perRoute := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / batch
	b.ReportMetric(perRoute, "ns/route")
}

// BenchmarkServeHTTPRoute is the HTTP/JSON baseline on the same
// workload: parallel keep-alive clients, one GET /route per op.
func BenchmarkServeHTTPRoute(b *testing.B) {
	hs, addrs := benchHTTPServer(b)
	tr := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		buf := make([]byte, 4096)
		i := uint32(0)
		for pb.Next() {
			i++
			url := fmt.Sprintf("%s/route?src=%s&dst=%s", hs.URL, addrs[i%1024], addrs[(i*7)%1024])
			resp, err := client.Get(url)
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, rerr := resp.Body.Read(buf); rerr != nil {
					break
				}
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("HTTP %d", resp.StatusCode)
			}
		}
	})
}
