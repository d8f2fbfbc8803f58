GO ?= go

.PHONY: all fmt build vet test race fuzz bench-smoke bench-check bench-hot bench-json load-smoke flight-smoke scenario-smoke wire-smoke diagnose-smoke scale-smoke cover staticcheck ci

all: ci

# Fails if any file needs gofmt (mirrors the CI Format step).
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short coverage-guided runs of every fuzz target (seed corpora live
# under the packages' testdata/fuzz directories). FUZZTIME tunes the
# budget per target.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzLevelFromSorted$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzComputeAndRoute$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRepairLevels$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzChurnSchedule$$' -fuzztime $(FUZZTIME) ./internal/simnet
	$(GO) test -run '^$$' -fuzz '^FuzzWireDecode$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzParseSyndrome$$' -fuzztime $(FUZZTIME) ./internal/diagnose
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzNavVector$$' -fuzztime $(FUZZTIME) ./internal/topo
	$(GO) test -run '^$$' -fuzz '^FuzzHTTPQuery$$' -fuzztime $(FUZZTIME) ./internal/serve

# One iteration of every benchmark: catches bit-rot in the measurement
# code without paying for real measurements.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Vet and test the benchmark module (its own go.mod under slbench/).
# TestTinyRunEachWorkload builds cmd/slserve and drives it over HTTP
# and wire with reply verification, so a request-surface change that
# breaks the benchmark fails here rather than in a benchmark run.
bench-check:
	cd slbench && $(GO) vet ./... && $(GO) test ./...

# The hot-path benchmark set the CI bench-gate watches. BENCH_OUT
# captures the raw output for benchstat / internal/ci/benchgate; the
# regex must stay in sync with benchgate's default -match. -benchmem
# makes every benchmark report allocs/op so the gate can fail on
# allocation regressions, not just time.
BENCH_HOT = Benchmark(Unicast|GS|Repair|Serve|Flight|Wire)
BENCH_COUNT ?= 6
BENCH_OUT ?= bench.txt
bench-hot:
	$(GO) test -run '^$$' -bench '$(BENCH_HOT)' -benchtime 200ms -benchmem \
		-count $(BENCH_COUNT) -timeout 30m ./... | tee $(BENCH_OUT)

# Regenerate BENCH_1.json .. BENCH_8.json from the bench ledger's
# scenario table (bench_ledger_test.go): instrumentation overhead,
# parallel GS, repair vs cold GS under churn, snapshot serving vs the
# mutex-guarded facade, admission control under a churn storm
# (EXPERIMENTS.md E17), flight-recorder overhead, the flat SoA data
# plane vs BENCH_3, and the wire data plane vs HTTP/JSON. Rows come
# from the Benchmark* functions at GOMAXPROCS 1 and NumCPU; a failed
# scenario check fails the run.
bench-json:
	EMIT_BENCH_JSON=1 $(GO) test -run TestEmitBenchJSON .

# Tiny in-process load-generation run (cmd/slload driving the serving
# engine under a churn storm); fails unless enough requests complete
# OK. Wired into CI as an end-to-end smoke of the hardened serving
# path. See docs/OPERATIONS.md for real measurement recipes.
load-smoke:
	$(GO) run ./cmd/slload -n 8 -workers 4 -duration 2s -warmup 200ms \
		-mix route:8,batch:1,routeall:1 -churn 2ms -victims 4 \
		-deadline 1s -min-ok 500 -o /dev/null

# End-to-end flight-recorder smoke: start slserve, drive it briefly
# over HTTP with slload, then assert /debug/flight returns at least one
# parseable trace (internal/ci/flightcheck). Uses a fixed localhost
# port; override FLIGHT_ADDR if it clashes.
FLIGHT_ADDR ?= 127.0.0.1:18080
flight-smoke:
	@$(GO) build -o /tmp/slserve-smoke ./cmd/slserve
	@/tmp/slserve-smoke -n 6 -random 4 -listen $(FLIGHT_ADDR) & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	sleep 1; \
	$(GO) run ./cmd/slload -target http://$(FLIGHT_ADDR) -n 6 \
		-workers 2 -duration 1s -warmup 100ms -min-ok 50 \
		-flight -o /dev/null && \
	$(GO) run ./internal/ci/flightcheck http://$(FLIGHT_ADDR)/debug/flight

# Correlated-fault scenario smoke: one short seeded slload pass per
# scenario profile against the in-process engine (the schedule replays
# through the same Target.ApplyEvent surface an HTTP run uses), then
# the scenario unit/differential suites. -min-ok keeps it an
# end-to-end gate, not just a generator check.
scenario-smoke:
	@for p in subcube dimcut rolling flap partition; do \
		echo "# scenario $$p"; \
		$(GO) run ./cmd/slload -n 6 -workers 4 -duration 1s -warmup 100ms \
			-scenario $$p -seed 11 -deadline 1s -min-ok 200 -o /dev/null \
			|| exit 1; \
	done
	$(GO) test -run 'TestScenario|TestRunScenario|TestScheduleReplay' ./...

# End-to-end binary data-plane smoke: start slserve with both surfaces
# up, replay a seeded slload run over the wire protocol (coalesced
# batches + a correlated-fault scenario streamed as OpFaultDelta
# frames), and require an only-OK digest — every request answered,
# every answer a typed success, no overload/deadline/draining/error
# classes at all. Uses a fixed localhost port; override WIRE_ADDR if it
# clashes.
WIRE_ADDR ?= 127.0.0.1:18090
wire-smoke:
	@$(GO) build -o /tmp/slserve-wire-smoke ./cmd/slserve
	@/tmp/slserve-wire-smoke -n 6 -random 4 -listen 127.0.0.1:18091 -wire-addr $(WIRE_ADDR) & \
	pid=$$!; trap 'kill $$pid 2>/dev/null' EXIT; \
	sleep 1; \
	echo "# wire-smoke: plain seeded run" && \
	$(GO) run ./cmd/slload -wire $(WIRE_ADDR) -n 6 -seed 7 \
		-workers 4 -duration 1s -warmup 100ms -mix route:8,batch:1,routeall:1 \
		-deadline 2s -min-ok 500 -only-ok -o /dev/null && \
	echo "# wire-smoke: coalesced run with scenario churn" && \
	$(GO) run ./cmd/slload -wire $(WIRE_ADDR) -n 6 -seed 7 -coalesce 4 \
		-workers 4 -duration 1s -warmup 100ms -scenario flap \
		-deadline 2s -min-ok 500 -only-ok -o /dev/null

# Syndrome-diagnosis smoke: close the test→diagnose→journal→route loop
# end to end. First a seeded scenario run where the churn schedule is
# produced by PMC syndrome diagnosis instead of declared faults
# (-diagnosed), gated only-OK — within the diagnosability bound the
# diagnosed schedule must be indistinguishable from the truth. Then the
# decoder differentials and the journal/replay suites.
diagnose-smoke:
	@for adv in invert random; do \
		echo "# diagnosed scenario rolling, adversary $$adv"; \
		$(GO) run ./cmd/slload -n 6 -workers 4 -duration 1s -warmup 100ms \
			-scenario rolling -diagnosed -adversary $$adv -seed 11 \
			-deadline 1s -min-ok 200 -only-ok -o /dev/null \
			|| exit 1; \
	done
	$(GO) test -run 'TestDiagnose|TestDecode|TestLocal|TestSyndrome|TestReplay|TestReconciler|TestDedup|TestScheduleReplayDiagnosed' ./...

# Million-node scale gate: cold GS over the full Q20 cube plus one
# incremental repair, under a wall-clock budget (see
# internal/core/scale_test.go). Exercises the flat SoA core at the
# size the refactor targets.
scale-smoke:
	SCALE_SMOKE=1 $(GO) test -run '^TestScaleSmokeQ20$$' -timeout 150s -v ./internal/core

# Whole-repo statement coverage, gated by the ratcheting floor in
# .github/coverage-floor.txt (raise it when new tests push it up; CI
# fails if total coverage drops below it).
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat .github/coverage-floor.txt); \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { \
		if (t + 0 < f + 0) { printf "coverage %.1f%% is below the floor %.1f%%\n", t, f; exit 1 } \
		printf "coverage %.1f%% (floor %.1f%%)\n", t, f }'

# Static analysis; skipped with a notice when staticcheck is not on
# PATH (the container has no network to install it — CI installs it).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

ci: fmt vet build race bench-smoke staticcheck
