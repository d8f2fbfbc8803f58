package loadgen

import (
	"context"

	"repro/internal/faults"
	"repro/internal/wire"
)

// WireTarget drives a remote wire server over the binary protocol —
// the same request surface as HTTPTarget, minus the JSON and the
// per-request connection ceremony. With a Coalescer attached, single
// Route calls from concurrent workers merge into pipelined OpBatch
// frames, which is how slload -wire saturates a server the HTTP path
// cannot.
type WireTarget struct {
	// Client is the pooled wire client (required).
	Client *wire.Client
	// Coalescer, when non-nil, batches Route calls into OpBatch frames.
	Coalescer *wire.Coalescer
	// N is the topology size (the wire protocol, like slserve, does
	// not expose it; the caller knows the -n it launched with).
	N int
}

func (w WireTarget) Nodes() int { return w.N }

func (w WireTarget) Route(ctx context.Context, src, dst int) error {
	if w.Coalescer != nil {
		_, _, err := w.Coalescer.Unicast(ctx, uint32(src), uint32(dst))
		return err
	}
	_, err := w.Client.Unicast(ctx, uint32(src), uint32(dst))
	return err
}

func (w WireTarget) Batch(ctx context.Context, pairs [][2]int) error {
	ps := make([]wire.Pair, len(pairs))
	for i, p := range pairs {
		ps[i] = wire.Pair{Src: uint32(p[0]), Dst: uint32(p[1])}
	}
	_, _, err := w.Client.Batch(ctx, ps, nil)
	return err
}

// RouteAll synthesizes the fan-out as one snapshot-pinned batch — the
// wire protocol has no separate fan-out opcode; a batch of N-1 pairs
// is the same work against the same single snapshot.
func (w WireTarget) RouteAll(ctx context.Context, src int) error {
	ps := make([]wire.Pair, 0, w.N-1)
	for d := 0; d < w.N; d++ {
		if d == src {
			continue
		}
		ps = append(ps, wire.Pair{Src: uint32(src), Dst: uint32(d)})
	}
	_, _, err := w.Client.Batch(ctx, ps, nil)
	return err
}

func (w WireTarget) Fault(ctx context.Context, a int, down bool) error {
	return w.ApplyEvent(ctx, faultEvent(a, down))
}

func (w WireTarget) ApplyEvent(ctx context.Context, ev faults.ChurnEvent) error {
	_, err := w.Client.Fault(ctx, wire.FaultReq{
		Kind: uint8(ev.Kind), A: uint32(ev.A), B: uint32(ev.B),
	})
	return err
}
