# autopn build & reproduction targets.

GO ?= go

# Fuzzing/benchmark budgets; CI overrides these to keep the smoke jobs
# bounded, local runs can crank them up.
FUZZTIME ?= 30s
BENCHTIME ?= 100x
CONTENDED_BENCHTIME ?= 10000x
# bench-allocs needs enough iterations to amortize pool warm-up (the first
# few commits miss the body free list by design), and a fixed count so
# allocs/op is deterministic run to run.
ALLOC_BENCHTIME ?= 20000x

# Fault-injection soak seed; every CHAOS_SEED value yields one fixed,
# byte-identical fault schedule (see docs/ROBUSTNESS.md).
CHAOS_SEED ?= 1

# Per-run load-generation budget for the server load smoke; CI keeps it
# short, local runs can stretch it for steadier numbers.
LOADGEN_DURATION ?= 4s
# Where the load smoke drops its reports, decision logs and DLQ (CI
# uploads this directory as the server-e2e artifact).
SERVER_SMOKE_ARTIFACTS ?= server-smoke-artifacts
# Where the kill-and-recover smoke drops its ledger, audit report, WAL
# directory and per-run server logs (the recovery-e2e artifact).
RECOVERY_SMOKE_ARTIFACTS ?= recovery-smoke-artifacts
# Where the contention smoke drops the sched-off/sched-on loadgen reports,
# status snapshots and decision logs (the contention-smoke artifact).
CONTENTION_SMOKE_ARTIFACTS ?= contention-smoke-artifacts

.PHONY: all build test test-short race race-all bench bench-stm bench-server \
	bench-compare bench-allocs bench-contended bench-smoke trace-smoke \
	fuzz-smoke chaos server-smoke recovery-smoke contention-smoke lint ci repro figures clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

# Short mode skips the slow live-timing and full-grid tests.
test-short:
	$(GO) test -short ./...

# Race-detector pass over the concurrency core (the STM with its tracer
# and actuator, plus the observability layer scraped concurrently),
# including the snapshot-registry stress and tracer enable/disable tests,
# and the serving layer with its pooled-request recycling stress
# (TestRequestRecyclingStress: deadline timers, late workers and a
# mid-flight Shutdown racing over recycled requests).
# GOMAXPROCS=4 even on single-core runners: the flat-combining commit
# (combiner election, queue hand-off, spin-then-park wake-up) only
# interleaves interestingly with several Ps.
race:
	GOMAXPROCS=4 $(GO) test -race ./internal/stm/... ./internal/pnpool/... ./internal/obs/... \
		./internal/sched/... ./internal/server/... ./internal/wal/...

race-all:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# STM hot-path microbenchmarks (compare against BENCH_stm.json).
bench-stm:
	$(GO) test -bench . -benchmem -run '^$$' ./internal/stm/

# Request-path stage microbenchmarks (parse, ring route, exec, reply
# encode), diffed against the newest row set of the BENCH_server.json
# ledger. allocs/op is gated exactly; ns/op only fails past 5x the ledger
# row, since this class of host moves 2x between runs (bench-allocs runs the
# same comparison with the timing gate neutralized).
SERVER_BENCH = '^(BenchmarkParseRequest|BenchmarkRingLookup|BenchmarkExecGet|BenchmarkReplyEncode)$$'
bench-server:
	$(GO) test -benchmem -run '^$$' -benchtime=$(ALLOC_BENCHTIME) -bench $(SERVER_BENCH) ./internal/server/ | \
		$(GO) run ./cmd/bench-compare -baseline BENCH_server.json -threshold 400 -strict-allocs

# Run the hot-path benchmarks and diff them against BENCH_stm.json's
# "after" numbers, failing on >15% ns/op regressions (the tracing-off
# overhead guardrail). The contended benchmarks are excluded here: their
# run-to-run noise on shared runners is far above 15%, so they get their
# own target (bench-contended) with a generous threshold.
bench-compare:
	$(GO) test -benchmem -run '^$$' \
		-bench '^(BenchmarkBeginCommitReadOnly|BenchmarkSmallWriteTx|BenchmarkSmallWriteTxSched|BenchmarkNestedFanout)$$' \
		./internal/stm/ | \
		$(GO) run ./cmd/bench-compare -baseline BENCH_stm.json -threshold 15

# Hard allocation gate on the write-path benchmark family. The enormous
# ns/op threshold neutralizes timing noise (shared runners vary wildly);
# the only way this target fails is an allocs/op increase over
# BENCH_stm.json's "after" column (-strict-allocs). This is the guardrail
# that keeps the pooled zero-alloc write path honest: timing regressions
# are judged by bench-compare, allocation regressions by this target —
# exactly, since allocs/op at a fixed iteration count is deterministic.
# The serving layer's request path is held to the same standard: its stage
# benchmarks against BENCH_server.json, then the AllocsPerRun gates and the
# whole-path malloc count over a loopback connection.
bench-allocs:
	$(GO) test -benchmem -run '^$$' -benchtime=$(ALLOC_BENCHTIME) \
		-bench '^(BenchmarkBeginCommitReadOnly|BenchmarkSmallWriteTx|BenchmarkSmallWriteTxSched|BenchmarkNestedFanout)$$' \
		./internal/stm/ | \
		$(GO) run ./cmd/bench-compare -baseline BENCH_stm.json -threshold 10000 -strict-allocs
	$(GO) test -benchmem -run '^$$' -benchtime=$(ALLOC_BENCHTIME) -bench $(SERVER_BENCH) ./internal/server/ | \
		$(GO) run ./cmd/bench-compare -baseline BENCH_server.json -threshold 10000 -strict-allocs
	$(GO) test -count=1 -v -run '^(TestParseRequestAllocs|TestRingLookupAllocs|TestReplyEncode|TestRequestPathAllocs)$$' ./internal/server/

# Contended commit-path benchmarks at -cpu 1,4 (the flat-combining group
# commit's target workload), diffed against the exact -cpu entries in
# BENCH_stm.json. Advisory only — contended rows on shared or
# oversubscribed runners routinely vary 2x, so the diff is printed for
# trend reading (and to exercise the -cpu matching) but never fails the
# target; bench-contended.txt is the artifact to read.
bench-contended:
	$(GO) test -bench '^BenchmarkContendedCommit$$' -benchmem -cpu 1,4 \
		-benchtime=$(CONTENDED_BENCHTIME) -run '^$$' ./internal/stm/ | \
		tee bench-contended.txt | \
		{ $(GO) run ./cmd/bench-compare -baseline BENCH_stm.json -threshold 100 || true; }

# Produce a sample trace_event dump from a short fully-traced live run
# (CI uploads stm-trace.json as an artifact; load it in ui.perfetto.dev).
trace-smoke:
	$(GO) run ./cmd/autopn-live -workload array -writes 0.5 -cores 4 \
		-duration 3s -max-window 100ms -trace-sample 1 -trace-out stm-trace.json

# Trend-only benchmark smoke for CI: a fixed, tiny iteration budget so the
# job is fast; the output is uploaded as an artifact, never gated on. The
# contended benchmarks run at -cpu 1,4 so the artifact tracks the group
# commit's scaling trend alongside the uncontended hot paths.
bench-smoke:
	$(GO) test -bench . -benchmem -benchtime=$(BENCHTIME) -run '^$$' ./internal/stm/ | tee bench-smoke.txt
	$(GO) test -bench '^BenchmarkContendedCommit$$' -benchmem -cpu 1,4 \
		-benchtime=$(BENCHTIME) -run '^$$' ./internal/stm/ | tee bench-contended.txt

# Fuzz smoke: the trace loader (the corpus-backed FuzzLoad target) and the
# server's request-line parser.
fuzz-smoke:
	$(GO) test -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) -run '^$$' ./internal/trace
	$(GO) test -fuzz=FuzzParseRequest -fuzztime=$(FUZZTIME) -run '^$$' ./internal/server

# Fault-injection soak under the race detector: the injector's own unit
# tests, the STM chaos suite (forced aborts, stalls and the seeded soak on
# both commit paths), and the end-to-end tuner self-protection test.
# Deterministic per CHAOS_SEED; set CHAOS_LOG=<path> to persist the
# self-protection decision trail as JSONL.
chaos:
	GOMAXPROCS=4 CHAOS_SEED=$(CHAOS_SEED) $(GO) test -race -count=1 -run '^TestChaos' \
		./internal/chaos/ ./internal/stm/ .

# End-to-end server load smoke: start the sharded server in-process,
# calibrate the host's sustainable rate, then drive 1x and 2x sustainable
# open-loop load and assert the admission-control contract (shedding
# engages with typed ERR overload replies, goodput holds within 20% of
# the 1x run, accepted p99 stays bounded, >= 2 shards log independent
# tuning decisions). Reports, per-shard decision logs and the DLQ land in
# $(SERVER_SMOKE_ARTIFACTS).
server-smoke:
	SERVER_SMOKE=1 LOADGEN_DURATION=$(LOADGEN_DURATION) \
		SERVER_SMOKE_ARTIFACTS=$(abspath $(SERVER_SMOKE_ARTIFACTS)) \
		$(GO) test -run '^TestServerLoadSmoke$$' -count=1 -v ./internal/server/

# Kill-and-recover gate: build the server binary, drive verified load
# against it, SIGKILL it mid-run, restart on the same WAL directory and
# assert zero acked-write loss (ledger audit), bounded recovery time,
# tuner warm-start from the per-shard checkpoints (>= 2 shards resume
# their pre-crash (t,c) with a RECOVERY decision event) and that the
# steady-state WAL cost under interval fsync stays >= 0.85x of the
# no-WAL baseline. Ledger, audit report, WAL dir, per-run server logs
# and the recovery status snapshot land in $(RECOVERY_SMOKE_ARTIFACTS).
recovery-smoke:
	RECOVERY_SMOKE=1 LOADGEN_DURATION=$(LOADGEN_DURATION) \
		RECOVERY_SMOKE_ARTIFACTS=$(abspath $(RECOVERY_SMOKE_ARTIFACTS)) \
		$(GO) test -run '^TestRecoveryKillAndRecover$$' -count=1 -v ./internal/server/

# Contention-scheduler goodput gate: drive the deep retry-storm hot-set
# scenario (whole-key-space MADDs, oversized worker pool) against two
# identically configured single-shard servers, scheduler off and on, and
# assert scheduler-on goodput >= 1.25x scheduler-off, that hot boxes were
# promoted into lanes, and that the promotion decisions persisted to the
# JSONL decision log. Reports, status snapshots and decision logs land in
# $(CONTENTION_SMOKE_ARTIFACTS). See docs/SCHEDULER.md.
contention-smoke:
	CONTENTION_SMOKE=1 LOADGEN_DURATION=$(LOADGEN_DURATION) \
		CONTENTION_SMOKE_ARTIFACTS=$(abspath $(CONTENTION_SMOKE_ARTIFACTS)) \
		$(GO) test -run '^TestContentionSmoke$$' -count=1 -v ./internal/server/

# Static analysis beyond go vet. Uses golangci-lint (see .golangci.yml)
# when installed; CI always runs it.
lint:
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; running go vet only"; \
		$(GO) vet ./...; \
	fi

# Everything the CI pipeline runs, in one target, so local runs and the
# pipeline stay in lockstep (the fuzz/bench budgets match ci.yml).
ci: build test-short race chaos fuzz-smoke bench-smoke bench-allocs server-smoke recovery-smoke contention-smoke lint

# The single acceptance test for the paper's headline claims.
repro:
	$(GO) test -run TestReproductionGate -v .

# Regenerate every figure/table of the paper at full repetitions.
figures:
	$(GO) run ./cmd/autopn-bench -experiment all -reps 10

clean:
	$(GO) clean ./...
