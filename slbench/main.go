// Command slbench is the repository's benchmark of the safety-level
// server. It builds ./cmd/slserve from the tree under test, boots it as
// separate processes on a seeded fault set, drives one named workload
// over loopback and checks every answer against an in-process
// core.Router. Run it from the root of a checkout:
//
//	bash slbench/run.sh --workload unicast-q10 --seed 7 --seconds 40 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// every end-to-end metric; with --trace 1 the same run records spans
// around its calls and then replays the workload's fault set and
// request stream through each layer's public entry point, and the JSON
// carries every per-layer metric instead. A wrong answer, a failed
// build or a missing tree exits non-zero without printing a result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slbench:", err)
		os.Exit(1)
	}
}

// config is one invocation.
type config struct {
	root, out string
	w         workload
	seed      uint64
	seconds   time.Duration
	trace     bool
	// boots is the least number of times slserve is started; setup_s
	// is the median of all boots and the last servingProcs+1 serve the
	// run.
	boots int
	// minDeltas is the least number of fault deltas a run sends.
	minDeltas int
	// layerN is the request count of the traced layer replay, and
	// layerDeltas its delta count.
	layerN, layerDeltas int
}

func run(args []string) error {
	fs := flag.NewFlagSet("slbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: batch-q20 or unicast-q10")
	seed := fs.Uint64("seed", 1, "workload seed: fault set, pair streams and delta schedule")
	seconds := fs.Float64("seconds", 40, "measured seconds of one run")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	root := fs.String("root", "..", "root of the tree under test")
	out := fs.String("out", "../.bench_build", "directory for the slserve binary and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	cfg := config{
		root: *root, out: *out, w: w, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		boots: 5, minDeltas: minDeltas, layerN: 10000, layerDeltas: 300,
	}
	for _, p := range []string{"go.mod", "cmd/slserve"} {
		if _, err := os.Stat(filepath.Join(cfg.root, p)); err != nil {
			return fmt.Errorf("tree under test: %w", err)
		}
	}
	// The run keeps every reply for verification; collecting less often
	// keeps the generator's garbage collector from competing with
	// slserve for the two cores as often.
	debug.SetGCPercent(gcPercent)
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	bin, err := buildServer(ctx, cfg.root, cfg.out)
	if err != nil {
		return err
	}
	res, err := runWorkload(cfg, bin)
	if err != nil {
		return err
	}
	return res.print(os.Stdout, os.Stderr)
}

// gcPercent is the generator's GOGC outside the measured slices.
const gcPercent = 400

// procsPerProcess is the GOMAXPROCS of slserve and of the generator
// while it measures.
const procsPerProcess = 1

// servingProcs is how many slserve processes the route slices rotate
// over.
const servingProcs = 3

// Fast boots are repeated until their median is steady: at least
// config.boots of them and bootBudget of boot time, at most maxBoots.
const (
	bootBudget = 2 * time.Second
	maxBoots   = 21
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	env       envInfo
	attempted int
	failed    int
	verified  int
	metrics   map[string]metric
	notes     []string
}

func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(stdout, stderr *os.File) error {
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stderr, "  %-32s %14.4f %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(stderr, " ", n)
	}
	env, err := json.Marshal(map[string]any{"env": r.env, "verified_replies": r.verified})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(env))
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// runWorkload boots the server, runs every phase, verifies every answer
// and computes the metrics of the requested mode.
func runWorkload(cfg config, bin string) (*result, error) {
	in, err := makeInputs(cfg.w, cfg.seed)
	if err != nil {
		return nil, err
	}
	// slserve and the generator each run one P, so on a two-core host
	// they do not contend for each other's core. Verification and the
	// in-process replay's set-up use every core again afterwards.
	procs := procsPerProcess
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	// The last servingProcs+1 boots stay running. The rounds give each
	// route slice to the next route server in turn, so what differs from
	// one slserve process to the next (the three of one Q18 run served
	// 179k, 128k and 138k routes per CPU-second) is averaged within the
	// run instead of setting the whole run's figures. The last server
	// takes only the fault deltas, so the route servers keep the boot
	// fault set the traced replay also uses.
	var boots []float64
	var srvs []*server
	defer func() {
		for _, s := range srvs {
			s.stop()
		}
	}()
	for spent := 0.0; ; {
		s, t, err := startServer(bin, in, procs)
		if err != nil {
			return nil, err
		}
		boots = append(boots, t.Seconds())
		spent += t.Seconds()
		srvs = append(srvs, s)
		if len(srvs) > servingProcs+1 {
			srvs[0].stop()
			srvs = srvs[1:]
		}
		if len(boots) >= maxBoots || (len(boots) >= max(cfg.boots, servingProcs+1) && spent >= bootBudget.Seconds()) {
			break
		}
	}

	d := &driver{in: in, trace: cfg.trace}
	var targets []*target
	defer func() {
		for _, t := range targets {
			t.close()
		}
	}()
	for _, s := range srvs {
		t, err := d.dial(s)
		if err != nil {
			return nil, err
		}
		targets = append(targets, t)
	}
	routeTargets := targets[:servingProcs]
	ds := d.newDeltaSender(targets[servingProcs])
	mainP, coalP, httpP := d.mainPhase(), d.coalescedPhase(), d.httpPhase()

	// One untimed warm-up round on every server, then the measured
	// rounds; a round's time is shared between its four slices.
	roundDur := time.Duration(float64(cfg.seconds) / float64(rounds+servingProcs))
	part := func(f float64) time.Duration { return time.Duration(f * float64(roundDur)) }
	round := func(t *target, measure bool) {
		d.slice(mainP, t, part(0.3), measure)
		d.slice(coalP, t, part(0.3), measure)
		d.slice(httpP, t, part(0.15), measure)
		ds.slice(part(0.25), 0, measure)
	}
	steal0 := readCPUStat()
	// The generator's collector runs only between slices (each slice
	// starts with runtime.GC); the limit is a backstop.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(1 << 30)
	for _, t := range routeTargets {
		round(t, false)
	}
	for r := 0; r < rounds; r++ {
		round(routeTargets[r%servingProcs], true)
	}
	// A run too short for minDeltas at deltaSpacing sends the rest in
	// one more slice.
	if ds.st.attempted < cfg.minDeltas {
		ds.slice(0, cfg.minDeltas, true)
	}
	debug.SetMemoryLimit(math.MaxInt64)
	debug.SetGCPercent(gcPercent)
	deltas := ds.finish()
	steal1 := readCPUStat()
	// rss_mb is the highest peak of the serving processes.
	rss := 0.0
	for _, s := range srvs {
		r, err := peakRSSMiB(s.pid)
		if err != nil {
			return nil, err
		}
		rss = max(rss, r)
	}

	var (
		layers map[string]float64
		tr     *tracer
	)
	if cfg.trace {
		if layers, tr, err = replayLayers(in, in.initial, in.schedule, routeTargets[0].srv, cfg.layerN, cfg.layerDeltas); err != nil {
			return nil, err
		}
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	verified, err := verify(in, deltas.accepted, d.replies, d.http)
	if err != nil {
		return nil, fmt.Errorf("verification failed: %w", err)
	}

	res := &result{
		env:      newEnvInfo(cfg.w, cfg.seed, cfg.root, filepath.Join(cfg.root, "slbench"), procs),
		verified: verified,
		metrics:  map[string]metric{},
	}
	heal, late := sortedDur(deltas.heal), sortedDur(deltas.late)
	res.env.StealPct = stealPct(steal0, steal1)
	res.env.LateMS = ms(quantile(late, 0.99))
	for _, p := range []*phase{mainP, coalP, httpP} {
		res.attempted += p.attempted
		res.failed += p.failed
		res.notes = append(res.notes, p.describe())
	}
	res.attempted += deltas.attempted + deltas.polls
	res.failed += deltas.failed + deltas.pollFailed
	res.notes = append(res.notes, fmt.Sprintf("deltas     %8d sent %9d accepted %5d failed  heal p50 %.3fms p99 %.3fms (%d samples)  ack p50 %.1fus  pacer late p99 %.3fms",
		deltas.attempted, len(deltas.accepted), deltas.failed, ms(quantile(heal, 0.5)), ms(quantile(heal, 0.99)), len(heal),
		us(latencyOf(deltas.ack, 0.5)), ms(quantile(late, 0.99))))
	res.notes = append(res.notes, fmt.Sprintf("boots %v s; %d replies verified", boots, verified))

	if !cfg.trace {
		res.set("setup_s", "s", medianF(boots))
		res.set("rss_mb", "MiB", rss)
		res.set("ok_ratio", "ratio", float64(res.attempted-res.failed)/float64(res.attempted))
		res.set("routes_per_cpu_s", "routes/cpu-s", mainP.routesPerCPU())
		res.set("req_p50_us", "us", us(mainP.latency(0.5)))
		res.set("coalesced.routes_per_cpu_s", "routes/cpu-s", coalP.routesPerCPU())
		res.set("coalesced.req_p50_us", "us", us(coalP.latency(0.5)))
		res.set("http.routes_per_cpu_s", "routes/cpu-s", httpP.routesPerCPU())
		res.set("http.req_p50_us", "us", us(httpP.latency(0.5)))
		res.set("fault_ack_p50_us", "us", us(latencyOf(deltas.ack, 0.5)))
		return res, nil
	}

	for k, v := range layers {
		res.set(k, layerUnit(k), v)
	}
	// The tails are reported here, unbounded: on a host whose steal
	// swings between runs they move several-fold between runs of the
	// same code, so they cannot gate a change.
	res.set("req_p99_us", "us", us(mainP.latency(0.99)))
	res.set("http.req_p99_us", "us", us(httpP.latency(0.99)))
	res.set("heal_p99_ms", "ms", ms(quantile(heal, 0.99)))
	// Heal time on Q20 is bimodal between runs of the same code (each
	// delta republishes megabytes of level tables), so it is reported
	// here too rather than gated.
	res.set("heal_p50_ms", "ms", ms(quantile(heal, 0.5)))
	res.set("serve.backlog_refusals", "count", float64(deltas.backlog))
	mt := mainP.total()
	res.set("client.cpu_us_per_route", "us", us(mt.cliCPU)/float64(max(mt.routes, 1)))
	res.set("env.steal_pct", "%", res.env.StealPct)
	res.set("gen.late_ms", "ms", res.env.LateMS)
	plain, traced := quantile(sortedDur(mainP.plainLat), 0.5), quantile(sortedDur(mainP.tracedLat), 0.5)
	res.set("trace.overhead_pct", "%", 100*float64(traced-plain)/float64(plain))
	res.set("wire_http_per_core_x", "x", mainP.routesPerCPU()/httpP.routesPerCPU())
	res.notes = append(res.notes,
		fmt.Sprintf("serve.flight_pct %.2f%% against the 5%% flight-recorder budget of BENCH_6", layers["serve.flight_pct"]),
		fmt.Sprintf("wire_http_per_core_x %.2fx against the 5x floor of BENCH_8", res.metrics["wire_http_per_core_x"].Value))
	spans := append(d.spans, tr.spans...)
	path := filepath.Join(cfg.out, "spans", fmt.Sprintf("%s-seed%d.csv", cfg.w.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	res.notes = append(res.notes, fmt.Sprintf("%d spans written to %s", len(spans), path))
	return res, nil
}

// layerUnits maps a per-layer metric's name suffix to its unit; every
// other per-layer metric is a count.
var layerUnits = []struct{ suffix, unit string }{
	{"_ns", "ns"}, {"_ns_per_route", "ns"}, {"_us", "us"}, {"_ms", "ms"}, {"_pct", "%"},
	{"_bytes", "B"}, {"_bytes_per_route", "B"}, {"_share", "ratio"}, {"_x", "x"},
}

func layerUnit(name string) string {
	for _, u := range layerUnits {
		if strings.HasSuffix(name, u.suffix) {
			return u.unit
		}
	}
	return "count"
}
