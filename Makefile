# Developer entry points. Everything is plain `go` underneath; the targets
# just pin the invocations the README documents.

GO ?= go

.PHONY: all build test test-short race bench benchcheck baseline figures check fmt vet clean serve-smoke trace-smoke crash-smoke churn-smoke compat-smoke replica-smoke mon-smoke soak-smoke

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

# Guard the committed engine baseline: exact welfare goldens plus
# side-by-side timing checks on this machine (default engine within 2x of
# plain sequential; instrumented engine within 2x of instrumentation off;
# incremental churn engine faster than full recompute by each case's floor
# (churnFloor in benchguard_test.go) with bit-identical per-step output; WAL-on serving within 1.25x of WAL-off
# under a saturating workload).
benchcheck:
	RUN_BENCHCHECK=1 $(GO) test -run 'TestBenchBaseline|TestInstrumentationOverhead|TestChurnBaseline' -count=1 -v .
	RUN_BENCHCHECK=1 $(GO) test -run 'TestWALOverhead' -count=1 -v ./internal/server/

# Regenerate BENCH_BASELINE.json (run after an intentional behavior change).
baseline:
	$(GO) run ./cmd/specbench -baseline BENCH_BASELINE.json

# Regenerate every evaluation figure and verify the published shapes.
figures:
	$(GO) run ./cmd/specbench -figure all -reps 20 -check

# End-to-end smoke of the serving path: specserved + specload at ≥1000
# req/s, zero lost events, clean SIGTERM drain, non-empty metrics dump.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the tracing path: specserved under specload, SIGQUIT
# flight-recorder dump while serving, specstrace -check reassembles it with
# zero orphan spans and the full request chain present.
trace-smoke:
	./scripts/trace_smoke.sh

# End-to-end crash injection of the durable path: specserved with a WAL,
# SIGKILLed under ≥1000 acked events/s of specload churn, restarted over the
# same data dir, and verified against the client's ledger — every acked
# event durable, recovered state bit-for-bit equal to a replay.
crash-smoke:
	./scripts/crash_smoke.sh

# End-to-end smoke of the incremental churn engine: specserved under a
# churn-heavy specload mix, accepted == applied reconciliation, live
# core.incremental.* counters, and the -disable-incremental escape hatch.
churn-smoke:
	./scripts/churn_smoke.sh

# End-to-end failover injection of the replication path: a leader plus a
# WAL-streaming follower, the leader SIGKILLed under ≥2000 acked events/s
# of cluster-routed specload churn, the follower promoted over HTTP, and
# the ledger verified against the promoted node — zero acked-and-lost
# events across the failover, both data dirs specwal-clean.
replica-smoke:
	./scripts/replica_smoke.sh

# Fleet-telemetry smoke: leader + follower under churny specload, specmon
# -check green against the live cluster, a provoked overload captured as an
# anomaly evidence pair (flight dump + CPU profile) listed by /debug/evidence
# and specmon, clean drains, and specwal-clean data dirs afterwards.
mon-smoke:
	./scripts/mon_smoke.sh

# Long-run scenario soak: leader + follower under a 5-minute specload
# -scenario mobile,diurnal,flash workload (diurnal Poisson waves, flash
# crowds, random-waypoint Move events), specmon -check green mid-soak,
# zero lost events, ledger verified, a rebuild-policy welfare drift report,
# and both data dirs specwal-clean. SOAK_DURATION/SOAK_PERIOD/SOAK_RPS
# shrink or scale the soak.
soak-smoke:
	./scripts/soak_smoke.sh

# Schema-compatibility smoke: recover the committed v0-generation data dir
# with the current binary, check it against its pinned state, drive the v1
# binary wire format and a fork against it, and run `specwal` verify on
# both generations of the same directory.
compat-smoke:
	./scripts/compat_smoke.sh

check: vet test-short

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
