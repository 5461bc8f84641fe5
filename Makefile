GO ?= go

.PHONY: build test vet fuzz-smoke bench bench-short bench-compare serve fleet-demo fleet-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The default test path runs vet first, mirroring the tier-1 gate, then
# race-checks the packages whose workers share the lane-batch buffers and
# queues (service fleet incl. remote proxies + dynamic membership, the
# wire codec's pooled request buffers, the fault injector, simulated GPU
# engine, cpuref pools, the shared hypertree memo cache, and the
# cross-signature batched verification primitives in
# wots/fors/xmss/hypertree).
test: vet
	$(GO) test ./...
	$(GO) test -race ./service/... ./internal/wire/ ./internal/faultinject/ ./internal/gpu/... ./internal/cpuref/... ./internal/spx/treecache/... ./internal/spx/ ./internal/spx/wots/ ./internal/spx/fors/ ./internal/spx/xmss/ ./internal/spx/hypertree/

# fuzz-smoke runs every native fuzz target of the wire codec (the decoder of
# each hot /v1/* body against encoding/json, and the encoders) for FUZZTIME.
FUZZTIME ?= 10s
fuzz-smoke:
	@for f in $$($(GO) test ./internal/wire -list '^Fuzz' | grep '^Fuzz'); do \
		$(GO) test ./internal/wire -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# bench regenerates the paper evaluation as machine-readable JSON so the
# perf trajectory can be tracked across PRs (BENCH_*.json).
bench: build
	$(GO) run ./cmd/herosign-bench -json -batch 256 -sample 2 > BENCH_latest.json
	@echo wrote BENCH_latest.json

# bench-short is the CI smoke lane: a fast subset covering a modeled table,
# the tuner, and the wall-clock experiments (lane engine, admission control
# under overload, tenant isolation under a noisy neighbor, hypertree
# memoization cold-vs-warm, lane-batched verification vs the scalar
# baseline).
bench-short: build
	$(GO) run ./cmd/herosign-bench -batch 64 -sample 1 -exp table1,table4,lanes,overload,tenants,memo,verify

# bench-compare regenerates BENCH_latest.json and diffs it against the
# newest committed dated snapshot.
bench-compare: bench
	$(GO) run ./cmd/bench-compare -old "$$(ls BENCH_2*.json | sort | tail -1)" -new BENCH_latest.json

serve: build
	$(GO) run ./cmd/herosign-serve

# fleet-demo runs the in-process fleet-of-fleets scenario with
# authenticated dynamic membership: three leaf servers announce themselves
# to a zero-backend front end, one leaf crashes mid-run (ejected by health,
# retired by lease expiry), a fourth joins late and then leaves cleanly,
# with assertions on ejection latency, goodput recovery, tail latency, the
# hedge budget, the membership event log and signature byte-identity.
fleet-demo: build
	$(GO) run ./examples/fleet-demo

# fleet-smoke is the multi-process integration test over real TCP: a
# static leaf+front lane (200 verified signs, SIGTERM drains), then a
# chaos lane — a -fleet-dynamic front end, three leaves joining with a
# shared -fleet-secret (one slowed by -chaos fault injection), one leaf
# SIGKILLed mid-lane (ejection + lease-expired retirement, signs keep
# succeeding via failover) and one departing cleanly via SIGTERM leave.
fleet-smoke:
	./scripts/fleet_smoke.sh
