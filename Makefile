GO ?= go

.PHONY: build test vet fuzz-smoke bench benchmark serve fleet-demo fleet-smoke

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# The default test path runs vet first, mirroring the tier-1 gate, then the
# suite with ./benchmark in a run of its own: its smoke test drives an open
# loop that must keep its schedule, which a CPU-heavy package testing beside
# it (the modeled sweep in internal/bench) can make it miss on a 2-vCPU host.
# Last it race-checks the packages whose workers share the lane-batch
# buffers and queues (service fleet incl. remote proxies + dynamic
# membership, the wire codec's pooled request buffers, the fault injector,
# simulated GPU engine, cpuref pools, the shared hypertree memo cache, and
# the cross-signature batched verification primitives in
# wots/fors/xmss/hypertree).
test: vet
	$(GO) test $$($(GO) list ./... | grep -v '/benchmark$$')
	$(GO) test ./benchmark/
	$(GO) test -race ./service/... ./internal/wire/ ./internal/faultinject/ ./internal/gpu/... ./internal/cpuref/... ./internal/spx/treecache/... ./internal/spx/ ./internal/spx/wots/ ./internal/spx/fors/ ./internal/spx/xmss/ ./internal/spx/hypertree/

# fuzz-smoke runs every native fuzz target of the wire codec (the decoder of
# each hot /v1/* body against encoding/json, and the encoders) for FUZZTIME.
FUZZTIME ?= 10s
fuzz-smoke:
	@for f in $$($(GO) test ./internal/wire -list '^Fuzz' | grep '^Fuzz'); do \
		$(GO) test ./internal/wire -run '^$$' -fuzz "^$$f\$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# bench regenerates the modeled paper evaluation (every table and figure of
# §IV on the simulated GPU) as BENCH_modeled.json. The model is
# deterministic, so the file changes only when the model does, and
# internal/bench's TestModeledTablesRepeatExactly compares every cell of it.
bench: build
	$(GO) run ./cmd/herosign-bench -json -batch 256 -sample 2 > BENCH_modeled.json.tmp
	mv BENCH_modeled.json.tmp BENCH_modeled.json

# benchmark runs the repository benchmark declared in BENCHMARK.json: the
# five gated wall-clock workloads, results in benchmark/out/results.json.
benchmark:
	$(GO) run ./benchmark

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
