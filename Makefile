# Developer entry points. Everything is plain `go` underneath, the
# end-to-end scenarios included; the targets just pin the invocations the
# README documents.

GO ?= go

.PHONY: all build test test-short race bench benchcheck benchcheck-engine benchcheck-wal baseline figures check fmt vet clean e2e

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the multi-second soak tests.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Guard the committed baseline: both gate sets below.
benchcheck: benchcheck-engine benchcheck-wal

# Engine gates: exact welfare goldens plus side-by-side timing checks on
# this machine (the default engine, which runs with the coalition cache,
# within 2x of the uncached engine; instrumented engine within 2x of
# instrumentation off; incremental churn engine faster than full recompute
# by each case's floor (churnFloor in benchguard_test.go) with
# bit-identical per-step output).
benchcheck-engine:
	RUN_BENCHCHECK=1 $(GO) test -run 'TestBenchBaseline|TestInstrumentationOverhead|TestChurnBaseline' -count=1 -v .

# Serving gate: WAL-on serving within 1.25x of WAL-off under a saturating
# workload.
benchcheck-wal:
	RUN_BENCHCHECK=1 $(GO) test -run 'TestWALOverhead' -count=1 -v ./internal/server/

# Regenerate BENCH_BASELINE.json (run after an intentional behavior change).
baseline:
	$(GO) run ./cmd/specbench -baseline BENCH_BASELINE.json

# Regenerate every evaluation figure and verify the published shapes.
figures:
	$(GO) run ./cmd/specbench -figure all -reps 20 -check

# End-to-end scenarios against real processes (internal/e2e): specserved
# nodes driven by specload and checked with specwal, specmon and specstrace.
# The scenarios are serve, trace, churn, crash, replica, mon, soak and
# compat; -short cuts the soak from 5 minutes to 20 s. E2E_OUT=<dir> keeps
# a failed scenario's logs, reports and data dirs under <dir>/<scenario>.
# -count=1 because the test cache cannot see the binaries' sources.
e2e:
	RUN_E2E=1 $(GO) test -short -count=1 -v -timeout 15m ./internal/e2e/

check: vet test-short

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
