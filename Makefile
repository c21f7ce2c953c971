# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test lines gates race bench bench-sim bench-engine bench-derived bench-ledger ledger-check bench-obs bench-codec bench-cache codec-check workers-check stats-smoke service-smoke cache-smoke metrics-smoke stream-smoke chaos-smoke selfperturb selftrace api api-check vet fmt experiments examples clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Non-test Go lines per package and in total, perfbench excluded: the unit
# ROADMAP.md and CHANGES.md count design progress in (scripts/lines.sh).
lines:
	sh scripts/lines.sh

# Every two-sided timing gate, one package at a time so that the gates
# do not load each other. Each logs its ratio on both clocks with the
# quartiles and the rounds of internal/timing's alternating rounds. The
# gates run in `make test` as well.
gates:
	$(GO) test -p 1 -count=1 -v \
		-run '^(TestColumnarDecodeThroughput|TestColumnarQueryDecodeThroughput|TestCacheStorm|TestSelfPerturbOverhead|TestSelfTraceOverheadBudget)$$' \
		. ./internal/server/ ./internal/experiments/

race:
	$(GO) test -race ./internal/rt/ ./internal/experiments/ ./internal/machine/

bench:
	$(GO) test -bench=. -benchmem ./...

# Simulator-core benchmarks only (throughput, schedules, lock-heavy),
# with allocation counts — the numbers EXPERIMENTS.md quotes.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulator' -benchmem ./internal/machine/

# Event-based engine benchmarks: default Analyze (under the uniform and
# the paper's calibration) and the low-memory stream on the million-event
# backward wave, the sanitizer (trace.Repair) on damaged and adversarial
# traces, plus the small-trace throughput of both batch modes — the
# numbers EXPERIMENTS.md's engine section quotes.
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEventBasedMillionSequential|BenchmarkStreamMillion|BenchmarkRepair' -benchmem -count 5 .
	$(GO) test -run '^$$' -bench 'BenchmarkEventBasedThroughput|BenchmarkTimeBasedThroughput|BenchmarkLiberalThroughput' -benchmem -count 5 ./internal/core/

# Derived statistics on the approximated million-event wave: Table 3's
# waiting, Figure 5's parallelism and the critical path (the latter under
# both calibrations) — the numbers EXPERIMENTS.md's "Derived statistics"
# section quotes.
bench-derived:
	$(GO) test -run '^$$' -bench 'BenchmarkWaitingMillion|BenchmarkParallelismMillion|BenchmarkCriticalPathMillion' -benchmem -count 5 .

# The benchmark ledger: every BENCHMARK.json workload untraced at seeds
# 1-3 for BENCHMARK.json's run_seconds, summarized per workload and
# end-to-end metric into BENCH_$(PR).json (scripts/bench_ledger.sh).
bench-ledger:
	@test -n "$(PR)" || { echo "usage: make bench-ledger PR=<number>" >&2; exit 2; }
	bash scripts/bench_ledger.sh $(PR)

# The allocation gate CI runs on the ledgers: in the newest BENCH_<n>.json
# every workload's alloc_mb_per_op median may exceed the previous
# ledger's by at most BENCHMARK.json's bound; timings are not gated
# (scripts/ledger_check.sh).
ledger-check:
	bash scripts/ledger_check.sh

# The parallel sweep runner must not change a single output byte (also
# CI's test job).
workers-check:
	$(GO) run ./cmd/experiments -exact -run all -workers 1 > /tmp/perturb-w1.txt
	$(GO) run ./cmd/experiments -exact -run all -workers 8 > /tmp/perturb-w8.txt
	diff /tmp/perturb-w1.txt /tmp/perturb-w8.txt && echo "workers-invariant: OK"

# Columnar codec benchmarks: encode, whole decode, streaming decode and
# index-skipping windowed decode on a million-event trace — the numbers
# EXPERIMENTS.md's "Columnar trace codec" section quotes.
bench-codec:
	$(GO) test -run '^$$' -bench 'Columnar|DecodeBinary' -benchmem ./internal/trace/

# The columnar acceptance floors (block-skip fraction, 10x compression,
# 2x full-decode and 4x windowed-query decode) plus the slicing
# metamorphic suite, in isolation.
codec-check:
	$(GO) test -run 'TestColumnar|TestSlice' -count=1 -v .

# Telemetry on/off cost of the million-event analysis (EXPERIMENTS.md,
# "Self-perturbation audit").
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkObsOverhead' -benchtime 10x .

# -stats must emit a machine-readable JSON line after the human summary.
stats-smoke:
	$(GO) run ./cmd/perturb -load testdata/golden/doacross.txt -stats -quiet \
		2> /tmp/perturb-stats.txt > /dev/null
	grep -m1 '^{' /tmp/perturb-stats.txt > /dev/null && echo "stats JSON: OK"

# End-to-end daemon check: serve, analyze the golden trace and diff the
# JSON against the committed service golden, then drain cleanly on
# SIGTERM (scripts/service_smoke.sh, also CI's service-smoke job).
service-smoke:
	$(GO) build -o /tmp/perturbd ./cmd/perturbd
	sh scripts/service_smoke.sh /tmp/perturbd

# Result-cache check against a live daemon: a duplicate-heavy storm must
# serve every repeat from memory ("cached": true, byte-identical body)
# and land a hit ratio of at least 0.85 on the debug expvar
# (scripts/cache_smoke.sh, also CI's cache-smoke job).
cache-smoke:
	$(GO) build -o /tmp/perturbd ./cmd/perturbd
	sh scripts/cache_smoke.sh /tmp/perturbd

# Streaming endpoint check against a live daemon: a chunked upload to
# /v1/analyze/stream must yield NDJSON window lines plus a final record
# matching the batch /v1/analyze response exactly, and the retired
# /analyze path must be a 404 (scripts/stream_smoke.sh). Then the
# streaming acceptance tests: windows invariant to chunk boundaries on
# all 24 kernels, a repairing stream's result equal to the batch
# repair's (in core and over the wire), no slot or goroutine leak on
# mid-stream cancellation, and a window line out before the upload
# ends. CI's stream-smoke job.
stream-smoke:
	$(GO) build -o /tmp/perturbd ./cmd/perturbd
	sh scripts/stream_smoke.sh /tmp/perturbd
	$(GO) test -run 'TestStreamChunkInvarianceKernels|TestStreamRepairMatchesAnalyze' -count=1 -v ./internal/core/
	$(GO) test -run 'TestStreamRepairMatchesBatch|TestStreamCancellationNoLeak|TestStreamWindowsBeforeUploadEnds' -count=1 -v ./internal/server/

# Resilience check: the deterministic chaos suites under -race (seeded
# netchaos fault injection, the three-instance fleet survival soak,
# mid-upload disconnects, memory-budget degradation), then a live-daemon
# pass over the degraded/checksum/readyz surface
# (scripts/chaos_smoke.sh, also CI's chaos-smoke job).
chaos-smoke:
	$(GO) test -race -count=1 ./internal/netchaos/
	$(GO) test -race -count=1 -v \
		-run 'TestFleetSurvivalSoak|TestFleetHedgingUnderChaosLatency|TestStreamMidUploadDisconnect|TestMemoryBudget|TestClientBreaker|TestErrorMatrix|TestStreamVerifiesContentSHA|TestOneWayUploadCarriesContentSHA|TestBackoffCannotOverflow|TestHedgeChargesEachEndpoint|TestFleetHedgeSharesTraceID' \
		./internal/server/
	$(GO) build -o /tmp/perturbd ./cmd/perturbd
	sh scripts/chaos_smoke.sh /tmp/perturbd

# Cache hit/miss cost over HTTP plus the hedged fleet round-trip — the
# numbers EXPERIMENTS.md's "Result cache" section quotes.
bench-cache:
	$(GO) test -run '^$$' -bench 'BenchmarkCacheHit|BenchmarkCacheMissAnalyze|BenchmarkClientHedged' -benchmem ./internal/server/

# Observability check against a live daemon: /metrics must pass the
# Prometheus exposition checker and carry the request phase histograms,
# the live and shutdown-written self-traces must audit clean, and the
# request log must be JSON lines (scripts/metrics_smoke.sh). Then the
# soak-driven self-trace must load through perturb.Analyze with every
# request phase present. CI's metrics-smoke job.
metrics-smoke:
	$(GO) build -o /tmp/perturbd ./cmd/perturbd
	$(GO) build -o /tmp/promcheck ./internal/tools/promcheck
	$(GO) build -o /tmp/tracecat ./cmd/tracecat
	sh scripts/metrics_smoke.sh /tmp/perturbd /tmp/promcheck /tmp/tracecat
	$(GO) test -run 'TestSelfTraceAnalyzesOwnService' -count=1 -v .

# Dogfooded audit: the obs layer's own perturbation of the analysis.
selfperturb:
	$(GO) run ./cmd/experiments -run selfperturb

# Dogfooded service study: soak an in-process perturbd with the span
# recorder attached, analyze its exported self-trace, and report the
# service's waiting/parallelism profile plus the recorder's overhead.
selftrace:
	$(GO) run ./cmd/experiments -run selftrace

# Regenerate the pinned facade API surface after a deliberate change.
api:
	$(GO) run ./internal/tools/apidump > api.txt

# CI gate (the test job): the exported API may only change together with
# api.txt.
api-check:
	$(GO) run ./internal/tools/apidump > /tmp/perturb-api.txt
	diff -u api.txt /tmp/perturb-api.txt && echo "api surface: OK"

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Regenerate the paper's evaluation (plain text) and the Markdown report.
experiments:
	$(GO) run ./cmd/experiments
	$(GO) run ./cmd/experiments -markdown > /tmp/perturb-report.md && \
		echo "report: /tmp/perturb-report.md"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/livermore17
	$(GO) run ./examples/doacross
	$(GO) run ./examples/locks
	$(GO) run ./examples/goroutines

clean:
	$(GO) clean ./...
