package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/wire"
)

// The binary data plane. Each accepted connection runs the pipelined
// loop the protocol was designed for:
//
//	reader ──frames──▶ bounded jobs chan ──▶ N workers ──▶ results chan ──▶ writer
//
// One goroutine reads frames off the socket and tags each with an
// arrival sequence number; the workers decode each frame into a Call,
// serve it through Handle (the surface HTTP uses too: one set of
// checks, the deadline budget re-armed from the frame and capped by
// Options.Deadline, GCRA admission, drain awareness), and encode the
// Reply into a pooled buffer; a single writer reorders completed
// responses by sequence number so the client observes strict request
// order per connection, no matter how the workers interleave. The jobs
// channel is bounded: a client that pipelines faster than the workers
// drain blocks in the kernel, not in server memory.
//
// Refusals become typed error frames through the refusal table
// (refusalOf), the same rows that give HTTP its status codes. Version
// mismatches answer with CodeVersion and keep the connection alive —
// framing is intact, only the semantics are refused — which is the
// clean-degrade contract the cross-version compat tests pin.

// WireOptions tune a WireServer. The zero value serves with
// min(GOMAXPROCS, 4) workers and 128 queued frames per connection.
type WireOptions struct {
	// Workers is the per-connection routing worker count (<= 0 means
	// min(GOMAXPROCS, 4)).
	Workers int
	// QueueDepth bounds the per-connection in-flight frame queue
	// (<= 0 means 128). A full queue exerts TCP backpressure.
	QueueDepth int
	// MaxPayload bounds accepted request payloads (<= 0 means
	// wire.DefaultMaxPayload).
	MaxPayload int
	// RequireMinor refuses clients whose header minor version is below
	// it, and is what the server "advertises" in ping responses when it
	// exceeds the package's own minor. It models a future server that
	// has dropped old-minor support — the compat tests dial one to
	// prove a v1.0 client degrades to a typed ErrVersion, never a hang
	// or a mis-parse.
	RequireMinor uint8
	// Registry receives the wire_* metrics (nil disables).
	Registry *obs.Registry
}

// WireServer serves the binary protocol for one Service. Close stops
// the accept loop and every connection; the Service itself is not
// closed (it may still be serving HTTP).
type WireServer struct {
	svc  *Service
	ln   net.Listener
	opts WireOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	mConns    *obs.Gauge
	mAccepted *obs.Counter
	mFrames   *obs.Counter
	mErrors   *obs.Counter
}

// NewWireServer starts serving the binary protocol on ln. It returns
// immediately; Close (or closing ln) stops it.
func NewWireServer(svc *Service, ln net.Listener, opts WireOptions) *WireServer {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers > 4 {
			opts.Workers = 4
		}
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 128
	}
	if opts.MaxPayload <= 0 {
		opts.MaxPayload = wire.DefaultMaxPayload
	}
	ws := &WireServer{
		svc:   svc,
		ln:    ln,
		opts:  opts,
		conns: map[net.Conn]struct{}{},
	}
	r := opts.Registry
	ws.mConns = r.Gauge(obs.MetricWireConns)
	ws.mAccepted = r.Counter(obs.MetricWireAccepted)
	ws.mFrames = r.Counter(obs.MetricWireFrames)
	ws.mErrors = r.Counter(obs.MetricWireErrorFrames)
	ws.wg.Add(1)
	go ws.acceptLoop()
	return ws
}

// ListenWire listens on addr (e.g. "127.0.0.1:9090") and serves the
// binary protocol there.
func ListenWire(svc *Service, addr string, opts WireOptions) (*WireServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewWireServer(svc, ln, opts), nil
}

// Addr returns the bound listen address (useful with ":0").
func (ws *WireServer) Addr() string { return ws.ln.Addr().String() }

// Close stops accepting, closes every live connection, and waits for
// the per-connection pipelines to exit. Idempotent.
func (ws *WireServer) Close() error {
	ws.mu.Lock()
	if ws.closed {
		ws.mu.Unlock()
		ws.wg.Wait()
		return nil
	}
	ws.closed = true
	conns := make([]net.Conn, 0, len(ws.conns))
	for c := range ws.conns {
		conns = append(conns, c)
	}
	ws.mu.Unlock()
	err := ws.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	ws.wg.Wait()
	return err
}

func (ws *WireServer) acceptLoop() {
	defer ws.wg.Done()
	for {
		nc, err := ws.ln.Accept()
		if err != nil {
			return
		}
		ws.mu.Lock()
		if ws.closed {
			ws.mu.Unlock()
			_ = nc.Close()
			return
		}
		ws.conns[nc] = struct{}{}
		ws.mu.Unlock()
		ws.mAccepted.Inc()
		ws.mConns.Add(1)
		ws.wg.Add(1)
		go ws.serveConn(nc)
	}
}

// wireJob is one framed request traveling reader→worker: seq is the
// arrival order the writer restores, refuse short-circuits execution
// with a typed error frame (version/size refusals decided at read
// time must still flow through the writer to keep ordering).
type wireJob struct {
	seq     uint64
	hdr     wire.Header
	payload []byte // pooled; worker releases
	refuse  wire.ErrCode
	detail  string
}

// wireResult is one encoded response frame traveling worker→writer.
type wireResult struct {
	seq   uint64
	frame []byte // pooled; writer releases after write
}

func (ws *WireServer) serveConn(nc net.Conn) {
	defer ws.wg.Done()
	defer func() {
		ws.mu.Lock()
		delete(ws.conns, nc)
		ws.mu.Unlock()
		ws.mConns.Add(-1)
		_ = nc.Close()
	}()
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}

	jobs := make(chan wireJob, ws.opts.QueueDepth)
	results := make(chan wireResult, ws.opts.QueueDepth)

	// Workers: decode, execute against the snapshot engine, encode.
	var workerWg sync.WaitGroup
	for w := 0; w < ws.opts.Workers; w++ {
		workerWg.Add(1)
		go func() {
			defer workerWg.Done()
			ws.worker(jobs, results)
		}()
	}
	// Close results once every worker is done, so the writer drains
	// fully and exits.
	go func() {
		workerWg.Wait()
		close(results)
	}()

	// Writer: restore arrival order by sequence number. hold parks
	// responses that completed ahead of an earlier in-flight request.
	var writerWg sync.WaitGroup
	writerWg.Add(1)
	go func() {
		defer writerWg.Done()
		bw := bufio.NewWriterSize(nc, 32<<10)
		hold := map[uint64][]byte{}
		next := uint64(0)
		for res := range results {
			hold[res.seq] = res.frame
			for {
				frame, ok := hold[next]
				if !ok {
					break
				}
				delete(hold, next)
				next++
				if _, err := bw.Write(frame); err != nil {
					wire.PutBuf(frame)
					// The socket is gone; keep draining so workers
					// never block on the results channel.
					continue
				}
				wire.PutBuf(frame)
			}
			if len(results) == 0 {
				// No response immediately behind this one: flush the
				// batch to the wire rather than waiting for more.
				_ = bw.Flush()
			}
		}
		_ = bw.Flush()
		for _, frame := range hold {
			wire.PutBuf(frame)
		}
	}()

	// Reader: frames → jobs, in arrival order.
	var seq uint64
	var buf []byte
	for {
		hdr, payload, nbuf, err := wire.ReadFrame(nc, buf, ws.opts.MaxPayload)
		buf = nbuf
		if err != nil {
			if errors.Is(err, wire.ErrTooLarge) {
				// Framing itself is intact but the payload was refused
				// unread; the stream position is lost, so answer and
				// drop the connection.
				jobs <- wireJob{seq: seq, hdr: hdr, refuse: wire.CodeTooLarge, detail: err.Error()}
				seq++
			}
			break
		}
		ws.mFrames.Inc()
		job := wireJob{seq: seq, hdr: hdr}
		seq++
		switch {
		case hdr.Major != wire.Major, hdr.Minor < ws.opts.RequireMinor, hdr.Minor > ws.advertisedMinor():
			job.refuse = wire.CodeVersion
			job.detail = fmt.Sprintf("server speaks v%d.%d", wire.Major, ws.advertisedMinor())
		default:
			job.payload = append(wire.GetBuf(), payload...)
		}
		jobs <- job
	}
	close(jobs)
	workerWg.Wait()
	writerWg.Wait()
}

// advertisedMinor is the minor version the server claims: its own, or
// RequireMinor when that models a newer server.
func (ws *WireServer) advertisedMinor() uint8 {
	if ws.opts.RequireMinor > wire.Minor {
		return ws.opts.RequireMinor
	}
	return wire.Minor
}

// wireScratch is one worker's reusable decode/encode state, so a frame
// costs no allocation of its own.
type wireScratch struct {
	pairs  []wire.Pair
	routes []wire.RouteInfo
	call   Call
	reply  Reply
}

// worker executes jobs and emits encoded response frames.
func (ws *WireServer) worker(jobs <-chan wireJob, results chan<- wireResult) {
	sc := &wireScratch{call: Call{Pairs: make([]Request, 0, 64)}}
	for job := range jobs {
		frame := ws.execute(&job, sc)
		if job.payload != nil {
			wire.PutBuf(job.payload)
		}
		results <- wireResult{seq: job.seq, frame: frame}
	}
}

// errUnknownOp is decode's answer to an opcode the server does not
// serve.
var errUnknownOp = errors.New("serve: unknown wire op")

// decode turns a request frame's payload into sc.call, reusing the
// scratch pair buffers.
func (sc *wireScratch) decode(op wire.Op, payload []byte) error {
	c := &sc.call
	*c = Call{Pairs: c.Pairs[:0]}
	switch op {
	case wire.OpUnicast:
		req, err := wire.ParseUnicastReq(payload)
		if err != nil {
			return err
		}
		c.Op, c.Src, c.Dst = OpRoute, topo.NodeID(req.Src), topo.NodeID(req.Dst)
		c.Budget = time.Duration(req.DeadlineUS) * time.Microsecond
	case wire.OpBatch:
		deadline, ps, err := wire.ParseBatchReq(payload, sc.pairs[:0])
		sc.pairs = ps
		if err != nil {
			return err
		}
		c.Op = OpBatch
		for _, q := range ps {
			c.Pairs = append(c.Pairs, Request{Src: topo.NodeID(q.Src), Dst: topo.NodeID(q.Dst)})
		}
		c.Budget = time.Duration(deadline) * time.Microsecond
	case wire.OpFeasibility:
		req, err := wire.ParseFeasReq(payload)
		if err != nil {
			return err
		}
		c.Op, c.Src, c.Dst = OpFeasibility, topo.NodeID(req.Src), topo.NodeID(req.Dst)
	case wire.OpFaultDelta:
		req, err := wire.ParseFaultReq(payload)
		if err != nil {
			return err
		}
		c.Op = OpFault
		c.Event = faults.ChurnEvent{Kind: faults.DeltaKind(req.Kind), A: topo.NodeID(req.A), B: topo.NodeID(req.B)}
	default:
		return errUnknownOp
	}
	return nil
}

// execute runs one job and returns its encoded response frame: decode,
// Handle, encode, or a typed error frame.
func (ws *WireServer) execute(job *wireJob, sc *wireScratch) []byte {
	op, code, detail := job.hdr.Op, job.refuse, job.detail
	var payload []byte
	switch {
	case code != 0:
	case op == wire.OpPing:
		payload = wire.AppendPingResp(wire.GetBuf(), wire.PingResp{Major: wire.Major, Minor: ws.advertisedMinor()})
	default:
		err := sc.decode(op, job.payload)
		if err == nil {
			err = ws.svc.Handle(context.Background(), &sc.call, &sc.reply)
		} else if err != errUnknownOp {
			err = malformed(err)
		}
		switch {
		case err == nil:
			payload = sc.encode(op)
		case err == errUnknownOp:
			code, detail = wire.CodeUnknownOp, op.String()
		default:
			code, detail = refusalOf(err).code, err.Error()
		}
	}
	if code != 0 {
		ws.mErrors.Inc()
		op, payload = wire.OpError, wire.AppendError(wire.GetBuf(), code, detail)
	}
	frame := wire.AppendFrame(wire.GetBuf(), op, wire.FlagResponse, job.hdr.ReqID, payload)
	wire.PutBuf(payload)
	return frame
}

// encode appends sc.reply's response payload to a pooled buffer.
func (sc *wireScratch) encode(op wire.Op) []byte {
	r := &sc.reply
	b := wire.GetBuf()
	switch op {
	case wire.OpUnicast:
		return wire.AppendUnicastResp(b, wire.UnicastResp{Gen: r.Gen, FlightID: r.FlightID, Route: routeInfoOf(r.Route)})
	case wire.OpBatch:
		out := sc.routes[:0]
		for _, rt := range r.Routes {
			out = append(out, routeInfoOf(rt))
		}
		sc.routes = out
		return wire.AppendBatchResp(b, r.Gen, out)
	case wire.OpFeasibility:
		return wire.AppendFeasResp(b, wire.FeasResp{Cond: uint8(r.Cond), Outcome: uint8(r.Outcome)})
	default: // wire.OpFaultDelta
		return wire.AppendFaultResp(b, wire.FaultResp{Gen: r.Gen, QueueDepth: uint32(r.QueueDepth)})
	}
}

// routeInfoOf compacts a routed result for the wire (clamped to the
// field widths; a hypercube route can't exceed them anyway).
func routeInfoOf(r *core.Route) wire.RouteInfo {
	return wire.RouteInfo{
		Outcome: uint8(r.Outcome),
		Cond:    uint8(r.Condition),
		Hamming: uint16(r.Hamming),
		Hops:    uint16(r.Len()),
	}
}
