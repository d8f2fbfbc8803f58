package loadgen

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/faults"
	"repro/internal/serve"
	"repro/internal/topo"
)

// faultEvent builds the churn event failing (down) or recovering
// node a.
func faultEvent(a int, down bool) faults.ChurnEvent {
	kind := faults.DeltaRecoverNode
	if down {
		kind = faults.DeltaFailNode
	}
	return faults.ChurnEvent{Kind: kind, A: topo.NodeID(a)}
}

// LocalTarget drives an in-process serve.Service through its
// context-aware readers — the readers serve.Handle serves both
// transports with, minus the codecs. Fault injection goes through
// TryApply so a full churn queue surfaces as ClassBacklog instead of
// stalling the storm.
type LocalTarget struct {
	Svc *serve.Service
}

func (l LocalTarget) Nodes() int { return l.Svc.Topology().Nodes() }

func (l LocalTarget) Route(ctx context.Context, src, dst int) error {
	_, err := l.Svc.RouteCtx(ctx, topo.NodeID(src), topo.NodeID(dst))
	return err
}

func (l LocalTarget) Batch(ctx context.Context, pairs [][2]int) error {
	reqs := make([]serve.Request, len(pairs))
	for i, p := range pairs {
		reqs[i] = serve.Request{Src: topo.NodeID(p[0]), Dst: topo.NodeID(p[1])}
	}
	_, err := l.Svc.BatchUnicastCtx(ctx, reqs)
	return err
}

func (l LocalTarget) RouteAll(ctx context.Context, src int) error {
	_, err := l.Svc.RouteAllCtx(ctx, topo.NodeID(src))
	return err
}

func (l LocalTarget) Fault(ctx context.Context, a int, down bool) error {
	return l.ApplyEvent(ctx, faultEvent(a, down))
}

func (l LocalTarget) ApplyEvent(_ context.Context, ev faults.ChurnEvent) error {
	return l.Svc.TryApply(ev)
}

// HTTPTarget drives a remote slserve over its HTTP endpoints,
// translating each status back into its sentinel through the serve
// refusal table so Classify works identically for every target.
type HTTPTarget struct {
	// Base is the server root, e.g. "http://localhost:8080".
	Base string
	// Format renders a node for the URL (the slserve address notation,
	// e.g. 4-bit binary for a Q4).
	Format func(int) string
	// N is the topology size (slserve does not expose it; the caller
	// knows the -n it launched the server with).
	N int
	// Client defaults to http.DefaultClient.
	Client *http.Client
}

func (h HTTPTarget) Nodes() int { return h.N }

func (h HTTPTarget) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

// get performs one GET and maps the response status to a canonical
// error. The per-request deadline rides on ctx; slserve's own -deadline
// remains the server-side ceiling.
func (h HTTPTarget) get(ctx context.Context, path string, q url.Values) error {
	u := strings.TrimRight(h.Base, "/") + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := h.client().Do(req)
	if err != nil {
		// The transport surfaces a blown deadline as a *url.Error
		// wrapping context.DeadlineExceeded; ctx.Err() disambiguates.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	// /fault has no admission control: its 429 can only be a full churn
	// queue, its 503 only a closed service.
	return serve.StatusErr(resp.StatusCode, path == "/fault")
}

func (h HTTPTarget) fmtNode(a int) string {
	if h.Format != nil {
		return h.Format(a)
	}
	return fmt.Sprint(a)
}

func (h HTTPTarget) Route(ctx context.Context, src, dst int) error {
	return h.get(ctx, "/route", url.Values{"src": {h.fmtNode(src)}, "dst": {h.fmtNode(dst)}})
}

func (h HTTPTarget) Batch(ctx context.Context, pairs [][2]int) error {
	specs := make([]string, len(pairs))
	for i, p := range pairs {
		specs[i] = h.fmtNode(p[0]) + "-" + h.fmtNode(p[1])
	}
	return h.get(ctx, "/batch", url.Values{"pairs": {strings.Join(specs, ",")}})
}

func (h HTTPTarget) RouteAll(ctx context.Context, src int) error {
	return h.get(ctx, "/routeall", url.Values{"src": {h.fmtNode(src)}})
}

func (h HTTPTarget) Fault(ctx context.Context, a int, down bool) error {
	return h.ApplyEvent(ctx, faultEvent(a, down))
}

func (h HTTPTarget) ApplyEvent(ctx context.Context, ev faults.ChurnEvent) error {
	// DeltaKind.String is exactly the slserve op vocabulary: fail-node,
	// recover-node, fail-link, recover-link.
	q := url.Values{"op": {ev.Kind.String()}, "a": {h.fmtNode(int(ev.A))}}
	if ev.Kind == faults.DeltaFailLink || ev.Kind == faults.DeltaRecoverLink {
		q.Set("b", h.fmtNode(int(ev.B)))
	}
	return h.get(ctx, "/fault", q)
}
