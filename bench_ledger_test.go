package safecube

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ci/benchparse"
	"repro/internal/faults"
	"repro/internal/loadgen"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The bench ledger regenerates the committed BENCH_N.json files from one
// table of named scenarios, one per file. A scenario's rows come from
// Benchmark* functions, so each measured body exists once, in its own
// package; BENCH_4 and BENCH_5, timed workloads with no benchmark twin,
// are in-process cell functions. Every row is measured at GOMAXPROCS 1
// and NumCPU and keeps the median of each unit; the file records the
// CPU model, the Go version and the scenario's checks, evaluated at
// NumCPU. A failed check fails the test after the file is written.
//
//	EMIT_BENCH_JSON=1 go test -run TestEmitBenchJSON .   # or make bench-json
//
// TestEmitBenchJSON<N> regenerates BENCH_<N>.json alone.

func TestEmitBenchJSON(t *testing.T)  { emitBenchJSON(t, "BENCH_1.json") }
func TestEmitBenchJSON2(t *testing.T) { emitBenchJSON(t, "BENCH_2.json") }
func TestEmitBenchJSON3(t *testing.T) { emitBenchJSON(t, "BENCH_3.json") }
func TestEmitBenchJSON4(t *testing.T) { emitBenchJSON(t, "BENCH_4.json") }
func TestEmitBenchJSON5(t *testing.T) { emitBenchJSON(t, "BENCH_5.json") }
func TestEmitBenchJSON6(t *testing.T) { emitBenchJSON(t, "BENCH_6.json") }
func TestEmitBenchJSON7(t *testing.T) { emitBenchJSON(t, "BENCH_7.json") }
func TestEmitBenchJSON8(t *testing.T) { emitBenchJSON(t, "BENCH_8.json") }

const (
	benchRounds = 5 // go test runs a benchmark row's median is taken over
	benchTime   = "500ms"
	// bench3RepairBytes is BENCH_3.json's repair replay bytes/op, measured
	// on the map-based core BENCH_7 is held against.
	bench3RepairBytes = 1105011
)

// benchReport is a BENCH_N.json file as the ledger writes it.
type benchReport struct {
	Config  string       `json:"config"`
	Claim   string       `json:"claim"`
	Env     benchEnv     `json:"env"`
	Results []benchRow   `json:"results"`
	Checks  []benchCheck `json:"checks,omitempty"`
}

type benchEnv struct {
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS []int  `json:"gomaxprocs"`
	// Command is the go test run the rows come from, made Rounds times;
	// empty for in-process cells.
	Command string `json:"command,omitempty"`
	Rounds  int    `json:"rounds"`
}

// benchRow is one benchmark or cell at one GOMAXPROCS: the median over
// the rounds of every unit it reported (ns/op, B/op, allocs/op and
// custom units such as ns/route or evals/op).
type benchRow struct {
	Name    string             `json:"name"`
	Procs   int                `json:"gomaxprocs"`
	Metrics map[string]float64 `json:"metrics"`
}

// benchCheck holds when Value Op Bound, Op one of >=, <= or >; a
// scenario's value function reads Value from the rows.
type benchCheck struct {
	Name  string  `json:"name"`
	Op    string  `json:"op"`
	Value float64 `json:"value"`
	Bound float64 `json:"bound"`
	OK    bool    `json:"ok"`
	value func(at lookup) float64
}

func (c benchCheck) eval(at lookup) benchCheck {
	c.Value = c.value(at)
	c.OK = c.Op == ">=" && c.Value >= c.Bound || c.Op == "<=" && c.Value <= c.Bound || c.Op == ">" && c.Value > c.Bound
	return c
}

// lookup returns a row's value of unit, NaN when the run lacks it.
type lookup func(name, unit string) float64

func (r *benchReport) at(procs int) lookup {
	return func(name, unit string) float64 {
		for _, row := range r.Results {
			if v, ok := row.Metrics[unit]; ok && row.Name == name && row.Procs == procs {
				return v
			}
		}
		return math.NaN()
	}
}

type scenario struct {
	config string
	// claim's verbs take the check values in order, then args, all read
	// at NumCPU.
	claim string
	args  func(at lookup) []any
	// bench and pkgs select the Benchmark* functions the rows come
	// from; rounds overrides benchRounds.
	bench  string
	pkgs   []string
	rounds int
	// cells measures a workload with no benchmark twin at the current
	// GOMAXPROCS.
	cells  func(t *testing.T) []benchRow
	checks []benchCheck
}

var benchScenarios = map[string]scenario{
	"BENCH_1.json": {
		config: "Q10 (1024 nodes), 102 random node faults (10%), seed 10",
		claim: "uninstrumented (registry off) unicast and GS cost the same as the pre-instrumentation " +
			"code path: every observer call is a single nil check",
		bench: "^BenchmarkInstrumentationOverhead$",
		pkgs:  []string{"."},
	},
	"BENCH_2.json": {
		config: "Q12 (4096 nodes, 24 faults, seed 7) and GH(4x4x4x4x4) (1024 nodes, 10 faults, seed 12)",
		claim: "Options.Workers partitions each GS round into contiguous chunks with per-worker delta " +
			"partials; the result is bit-identical to sequential, so any speedup is free",
		bench: "^BenchmarkCompute(Sequential|Parallel|GH)$",
		pkgs:  []string{"./internal/core"},
	},
	"BENCH_3.json": {
		config: "Q10 (1024 nodes), 40-event fail/recover schedule with link faults, seed 3",
		claim: "core.RepairLevels reconverges from the previous fixpoint through a dirty frontier: " +
			"over this schedule it spends %.0f NODE_STATUS evaluations where cold recomputation " +
			"spends %.0f, and the chaos suite pins both to bit-identical tables",
		args: func(at lookup) []any {
			return []any{at("BenchmarkRepairChurnReplayQ10", "evals/op"), at("BenchmarkComputeChurnReplayQ10", "evals/op")}
		},
		bench: "^Benchmark(Repair|Compute)ChurnReplayQ10$",
		pkgs:  []string{"./internal/core"},
	},
	"BENCH_4.json": {
		config: "Q12 (4096 nodes), 16 initial faults, churn storm = every 3rd client op is a node " +
			"fail/recover report, 400ms per cell",
		claim: "with 16 clients under a churn storm the snapshot-serving engine routes %.1fx the " +
			"req/s of the mutex-guarded facade: queries load a published snapshot while the " +
			"applier coalesces fault reports into few repairs",
		cells: facadeVsServe,
		checks: []benchCheck{{Name: "serve over facade-mutex routes/s, 16 readers under churn", Op: ">=", Bound: 3,
			value: func(at lookup) float64 {
				return at("serve/readers=16/churn=true", "routes/s") / at("facade-mutex/readers=16/churn=true", "routes/s")
			}}},
	},
	"BENCH_5.json": {
		config: "Q12 (4096 nodes), 16 initial faults, 16 churn victims toggled every 1ms, 16 open-loop " +
			"workers offering 1.5x the calibration row's closed-loop capacity for 1s after 300ms warmup",
		claim: "offered 1.5x capacity under churn, token-bucket admission at 0.5x capacity sheds %.0f " +
			"requests and holds the coordinated-omission-corrected p99 %.1fx below the unprotected engine's",
		cells: admissionUnderStorm,
		checks: []benchCheck{
			{Name: "requests shed with admission on", Op: ">", Bound: 0,
				value: func(at lookup) float64 {
					return at("open-loop/admission=on", loadgen.ClassOverload)
				}},
			{Name: "p99 without admission over p99 with it", Op: ">=", Bound: 3,
				value: func(at lookup) float64 {
					return at("open-loop/admission=off", "p99_us") / at("open-loop/admission=on", "p99_us")
				}},
		},
	},
	"BENCH_6.json": {
		config: "Q10 (1024 nodes), 12 faults seed 42, RouteCtx over a seeded pair stream, flight recorder on (bare) and off (noflight)",
		claim:  "the always-on flight recorder costs %.1f%% on the hardened read path, against a 5%% budget",
		bench:  "^Benchmark(ServeRouteCtx|FlightRecorder)$/^(bare|noflight|record)$",
		pkgs:   []string{"./internal/serve", "./internal/obs"},
		rounds: 7,
		checks: []benchCheck{{Name: "flight recorder overhead on RouteCtx, %", Op: "<=", Bound: 5,
			value: func(at lookup) float64 {
				on, off := at("BenchmarkServeRouteCtx/bare", "ns/op"), at("BenchmarkServeRouteCtx/noflight", "ns/op")
				return (on - off) / off * 100
			}}},
	},
	"BENCH_7.json": {
		config: "flat SoA core; the BENCH_3 replay (Q10, 40 events, seed 3), and Q16 (65536 nodes, " +
			"40 faults, seed 7) cold sharded GS and single-node repair",
		claim: "the flat data plane replays the BENCH_3 churn schedule in %.1fx fewer bytes than the map-based plane",
		bench: "^Benchmark(RepairChurnReplayQ10|GSColdQ16|RepairQ16)$",
		pkgs:  []string{"./internal/core"},
		checks: []benchCheck{{Name: "BENCH_3 repair bytes/op over the flat replay's", Op: ">=", Bound: 10,
			value: func(at lookup) float64 {
				return bench3RepairBytes / at("BenchmarkRepairChurnReplayQ10", "B/op")
			}}},
	},
	"BENCH_8.json": {
		config: "Q10 engine, 12 uniform faults (seed 42), loopback TCP, parallel clients, one route " +
			"per op (ServeWireBatch: 64 per op, see ns/route)",
		claim: "the coalesced wire data plane serves %.1fx the routes per core of keep-alive HTTP " +
			"GET /route through slserve's JSON handlers",
		bench: "^BenchmarkServe(Wire|WireBatch|HTTPRoute)$",
		pkgs:  []string{"./internal/serve"},
		checks: []benchCheck{{Name: "wire over HTTP routes per core", Op: ">=", Bound: 5,
			value: func(at lookup) float64 {
				return at("BenchmarkServeHTTPRoute", "ns/op") / at("BenchmarkServeWire", "ns/op")
			}}},
	},
}

func emitBenchJSON(t *testing.T, file string) {
	if os.Getenv("EMIT_BENCH_JSON") == "" {
		t.Skip("set EMIT_BENCH_JSON=1 to regenerate " + file)
	}
	sc := benchScenarios[file]
	procs := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		procs = append(procs, n)
	}
	rep := benchReport{Config: sc.config,
		Env: benchEnv{GoVersion: runtime.Version(), GOMAXPROCS: procs, Rounds: 1}}
	if sc.bench != "" {
		runBenchmarks(t, sc, &rep)
	} else {
		rep.Env.CPU = cpuModel()
		for _, p := range procs {
			prev := runtime.GOMAXPROCS(p)
			rows := sc.cells(t)
			runtime.GOMAXPROCS(prev)
			for i := range rows {
				rows[i].Procs = p
			}
			rep.Results = append(rep.Results, rows...)
		}
	}
	at := rep.at(procs[len(procs)-1])
	var vals []any
	for _, c := range sc.checks {
		c = c.eval(at)
		if math.IsNaN(c.Value) {
			t.Fatalf("check %q: the run lacks a row it reads", c.Name)
		}
		rep.Checks, vals = append(rep.Checks, c), append(vals, c.Value)
	}
	if sc.args != nil {
		vals = append(vals, sc.args(at)...)
	}
	rep.Claim = fmt.Sprintf(sc.claim, vals...)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = checkBenchFile(data)
	}
	if err == nil {
		err = os.WriteFile(file, append(data, '\n'), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if !c.OK {
			t.Errorf("%s: check %q failed: %.4g is not %s %.4g", file, c.Name, c.Value, c.Op, c.Bound)
		}
	}
	t.Logf("wrote %s: %s", file, rep.Claim)
}

// runBenchmarks fills rep from Rounds separate go test runs rather than
// one -count run: -count repeats each benchmark back to back, while
// separate runs interleave a scenario's rows (BENCH_6's bare and
// noflight above all), so drift during the measurement biases them
// alike.
func runBenchmarks(t *testing.T, sc scenario, rep *benchReport) {
	var cpus []string
	for _, p := range rep.Env.GOMAXPROCS {
		cpus = append(cpus, strconv.Itoa(p))
	}
	args := append([]string{"test", "-run", "^$", "-bench", sc.bench, "-benchmem",
		"-benchtime", benchTime, "-count", "1", "-cpu", strings.Join(cpus, ",")}, sc.pkgs...)
	rep.Env.Command = "go " + strings.Join(args, " ")
	if rep.Env.Rounds = sc.rounds; sc.rounds == 0 {
		rep.Env.Rounds = benchRounds
	}
	type key struct {
		name  string
		procs int
	}
	var order []key
	samples := map[key]map[string][]float64{}
	for r := 0; r < rep.Env.Rounds; r++ {
		out, err := exec.Command("go", args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s: %v\n%s", rep.Env.Command, err, out)
		}
		parsed, err := benchparse.Parse(bytes.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		rep.Env.CPU = parsed.CPU
		for _, res := range parsed.Results {
			k := key{res.Name, res.Procs}
			if samples[k] == nil {
				samples[k] = map[string][]float64{}
				order = append(order, k)
			}
			for unit, v := range res.Values {
				samples[k][unit] = append(samples[k][unit], v)
			}
		}
	}
	for _, k := range order {
		row := benchRow{Name: k.name, Procs: k.procs, Metrics: map[string]float64{}}
		for unit, vs := range samples[k] {
			row.Metrics[unit] = benchparse.Median(vs)
		}
		rep.Results = append(rep.Results, row)
	}
}

// cpuModel names the processor for in-process cells, which have no go
// test "cpu:" header; empty where /proc/cpuinfo does not exist.
func cpuModel() string {
	info, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// facadeVsServe is BENCH_4: route throughput of 1, 4 and 16 clients,
// each streaming seeded queries and, under churn, turning every third
// op into a fail/recover report of its own node. The baseline is the
// Cube facade behind one mutex, where a report invalidates the level
// cache and the next query repairs it under the lock; Server's applier
// takes reports from a bounded queue and publishes snapshots the
// queries load.
func facadeVsServe(t *testing.T) []benchRow {
	const cell = 400 * time.Millisecond
	var rows []benchRow
	for _, readers := range []int{1, 4, 16} {
		for _, churn := range []bool{false, true} {
			for _, name := range []string{"facade-mutex", "serve"} {
				c := MustNew(12)
				if err := c.InjectRandomFaults(42, 16); err != nil {
					t.Fatal(err)
				}
				var mu sync.Mutex
				lock, unlock, done := mu.Lock, mu.Unlock, func() {}
				route, fail, heal := c.Unicast, c.FailNode, c.RecoverNode
				if name == "serve" {
					srv, err := c.Serve(ServeOptions{QueueDepth: 64})
					if err != nil {
						t.Fatal(err)
					}
					lock, unlock, done = func() {}, func() {}, srv.Close
					route, fail, heal = srv.Unicast, srv.FailNode, srv.RecoverNode
				}
				var stop atomic.Bool
				var total atomic.Int64
				var wg sync.WaitGroup
				for r := 0; r < readers; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						victim, rng := NodeID(2000+3*r), stats.NewRNG(uint64(r)*7919+13)
						n := int64(0)
						for i := 0; !stop.Load(); i++ {
							src, dst := NodeID(rng.Intn(1<<12)), NodeID(rng.Intn(1<<12))
							lock()
							switch {
							case churn && i%6 == 2:
								_ = fail(victim)
							case churn && i%6 == 5:
								_ = heal(victim)
							default:
								route(src, dst)
								n++
							}
							unlock()
						}
						total.Add(n)
					}(r)
				}
				time.Sleep(cell)
				stop.Store(true)
				wg.Wait()
				done()
				routes := float64(total.Load())
				rows = append(rows, benchRow{
					Name:    fmt.Sprintf("%s/readers=%d/churn=%v", name, readers, churn),
					Metrics: map[string]float64{"routes": routes, "routes/s": routes / cell.Seconds()},
				})
			}
		}
	}
	return rows
}

// admissionUnderStorm is BENCH_5: open-loop clients offer 1.5x the
// engine's closed-loop capacity under a churn storm, once unprotected
// and once behind token-bucket admission at 0.5x capacity. loadgen
// times each request from its scheduled start (the coordinated-omission
// correction), so the unprotected backlog shows in the tail; both cells
// replay the same seeded request stream.
func admissionUnderStorm(t *testing.T) []benchRow {
	run := func(rate float64, burst int, cfg loadgen.Config) *loadgen.Report {
		set := faults.NewSet(topo.MustCube(12))
		if err := faults.InjectUniform(set, stats.NewRNG(42), 16); err != nil {
			t.Fatal(err)
		}
		svc, err := serve.New(set, serve.Options{QueueDepth: 256, Rate: rate, Burst: burst})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		cfg.Seed, cfg.Workers, cfg.ChurnEvery, cfg.ChurnVictims = 99, 16, time.Millisecond, 16
		return loadgen.Run(loadgen.LocalTarget{Svc: svc}, cfg)
	}
	capacity := run(0, 0, loadgen.Config{Duration: 400 * time.Millisecond, Warmup: 100 * time.Millisecond}).OKPerSec
	if capacity <= 0 {
		t.Fatal("calibration measured no throughput")
	}
	rows := []benchRow{{Name: "closed-loop/calibration", Metrics: map[string]float64{"ok/s": capacity}}}
	for _, admit := range []string{"off", "on"} {
		rate, burst := 0.0, 0
		if admit == "on" {
			rate, burst = 0.5*capacity, 64
		}
		rep := run(rate, burst, loadgen.Config{Rate: 1.5 * capacity, Duration: time.Second, Warmup: 300 * time.Millisecond})
		m := map[string]float64{
			"offered/s": 1.5 * capacity, "ok/s": rep.OKPerSec, "churn_events": float64(rep.ChurnEvents),
			"p50_us": rep.Latency.P50Us, "p90_us": rep.Latency.P90Us, "p99_us": rep.Latency.P99Us,
			"p999_us": rep.Latency.P999Us, "max_us": float64(rep.Latency.MaxUs), loadgen.ClassOverload: 0,
		}
		for class, n := range rep.Classes {
			m[class] = float64(n)
		}
		rows = append(rows, benchRow{Name: "open-loop/admission=" + admit, Metrics: m})
	}
	return rows
}

// checkBenchFile requires a config, a claim and named results of every
// BENCH file. A file in the ledger's shape (one with an env stamp) must
// also decode strictly into benchReport; older files are history.
func checkBenchFile(data []byte) error {
	var f struct {
		Config, Claim string
		Env           json.RawMessage
		Results       []struct{ Name string }
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	ok := f.Config != "" && f.Claim != "" && len(f.Results) > 0
	for _, r := range f.Results {
		ok = ok && r.Name != ""
	}
	if !ok {
		return errors.New("want a non-empty config, claim and results, each result named")
	}
	if f.Env == nil {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(&benchReport{})
}

func TestBenchFilesParse(t *testing.T) {
	files, _ := filepath.Glob("BENCH_*.json")
	if len(files) == 0 {
		t.Fatal("no BENCH files")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = checkBenchFile(data)
		}
		if err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
	ledger := []byte(`{"config": "c", "claim": "c", "env": {"go_version": "go1"},
		"results": [{"name": "BenchmarkX", "gomaxprocs": 1, "metrics": {"ns/op": 1}}]}`)
	if err := checkBenchFile(ledger); err != nil {
		t.Fatalf("ledger-shaped file rejected: %v", err)
	}
	if checkBenchFile(bytes.Replace(ledger, []byte(`"claim"`), []byte(`"extra": 1, "claim"`), 1)) == nil {
		t.Fatal("a ledger-shaped file with an unknown field passed")
	}
}

// TestBenchChecksPinBounds moves one row of each scenario check just
// past and just short of its bound, every other row reading 1000, and
// requires the short side to fail.
func TestBenchChecksPinBounds(t *testing.T) {
	cases := map[string]struct {
		row, unit  string
		pass, fail float64
	}{
		"serve over facade-mutex routes/s, 16 readers under churn": {"serve/readers=16/churn=true", "routes/s", 3001, 2999},
		"requests shed with admission on":                          {"open-loop/admission=on", "overload", 1, 0},
		"p99 without admission over p99 with it":                   {"open-loop/admission=off", "p99_us", 3001, 2999},
		"flight recorder overhead on RouteCtx, %":                  {"BenchmarkServeRouteCtx/bare", "ns/op", 1049.9, 1050.1},
		"BENCH_3 repair bytes/op over the flat replay's":           {"BenchmarkRepairChurnReplayQ10", "B/op", 110501, 110502},
		"wire over HTTP routes per core":                           {"BenchmarkServeHTTPRoute", "ns/op", 5001, 4999},
	}
	checked := 0
	for _, sc := range benchScenarios {
		for _, b := range sc.checks {
			c, ok := cases[b.Name]
			if !ok {
				t.Fatalf("check %q has no case", b.Name)
			}
			checked++
			for _, v := range []float64{c.pass, c.fail} {
				rep := benchReport{Results: []benchRow{{Name: c.row, Procs: 2, Metrics: map[string]float64{c.unit: v}}}}
				at := func(name, unit string) float64 {
					if v := rep.at(2)(name, unit); !math.IsNaN(v) {
						return v
					}
					return 1000
				}
				if got := b.eval(at); got.OK != (v == c.pass) {
					t.Errorf("%q with %s %s = %v: ok=%v (%v %s %v)", b.Name, c.row, c.unit, v, got.OK, got.Value, got.Op, got.Bound)
				}
			}
		}
	}
	if checked != len(cases) {
		t.Fatalf("%d cases for %d checks", len(cases), checked)
	}
}
