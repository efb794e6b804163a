# Makefile: the same entry points CI runs (.github/workflows/ci.yml),
# so "it passed make" and "it passed CI" mean the same thing.
#
#   make build   compile everything
#   make vet     stock go vet
#   make lint    analyzer self-tests + elasticvet over the whole tree
#   make vet-fix-check  standalone elasticvet incl. test variants; zero findings
#   make test    full test suite (+ race on the fast packages)
#   make fuzz-smoke  ten seconds each of FuzzAgreeMessage (agreement decoder + delivery switch), FuzzDecodePayload (wire codec), FuzzReadFrame (tcpnet frame reader), FuzzGossipPacket (SWIM packet decoder + handler) and FuzzParseSchedule (-scale-policy parser)
#   make fp16-exhaustive  the binary16 encoders against the reference on all 2^32 float32 inputs
#   make chaos   chaos conformance at the pinned seeds
#   make cluster clustertest conformance (gossip control plane) at world 32
#   make grow    grow-path conformance (autopilot + warm spares) at world 32
#   make policy  recovery-policy conformance (cost-model strategy picks) at world 32
#   make cover   per-package coverage summary + gates (floors, baseline)
#   make bench-gate  control-plane measurement vs the committed BENCH_controlplane.json
#   make bench-check vet + test the elasticbench module (bench/), incl. one real kill episode
#   make bench WORKLOAD=kill_shrink SEED=1 SECONDS=16   one elasticbench workload, end to end
#   make bench-aa  every workload twice on this tree at 6 s windows: the benchmark's own noise floor
#   make check   everything above, in CI order

GO      ?= go
BIN     := bin
SEEDS   ?= 1 7 42

.PHONY: all build vet lint vet-fix-check test race fuzz-smoke fp16-exhaustive chaos cluster grow policy cover bench-gate bench-check bench bench-aa check clean

# World size for the clustertest conformance suite (CI: 32 per PR,
# 64/128 nightly).
CLUSTER_WORLD ?= 32

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint = the elasticvet suite: first its own analyzer tests (fixture
# modules with golden diagnostics), then the real tree through the
# go vet vettool protocol, which caches per-package results.
lint: $(BIN)/elasticvet
	$(GO) test ./internal/analysis/...
	$(GO) vet -vettool=$(abspath $(BIN)/elasticvet) ./...
	$(MAKE) vet-fix-check

# vet-fix-check: the standalone loader analyzes the _test.go variants
# the vettool protocol never compiles, so this is the gate that every
# finding in the tree — test files included — is either fixed or
# carries a justified //lint:ignore. Exit 2 means unsuppressed findings.
vet-fix-check: $(BIN)/elasticvet
	$(BIN)/elasticvet ./...

$(BIN)/elasticvet: FORCE
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/elasticvet ./cmd/elasticvet

FORCE:

test:
	$(GO) test ./...

# race: every package whose tests finish under the detector in minutes
# on two cores. gossip (8 s), policy (2 s) and core (22 s) joined with
# PR 23; none of the three was left out. node (2 s) joined with PR 25.
# gloo and horovod (about 1 s each) joined when their sends started
# relying on simnet's copy of every payload instead of their own.
# clustertest is not here because `make grow policy` already run it
# under -race at world 32.
race:
	$(GO) test -race \
		./internal/transport/... \
		./internal/rendezvous/... \
		./internal/mpi/... \
		./internal/obs/... \
		./internal/simnet/... \
		./internal/kvstore/... \
		./internal/trace/... \
		./internal/vtime/... \
		./internal/ulfm/... \
		./internal/autopilot/... \
		./internal/gossip/... \
		./internal/policy/... \
		./internal/core/... \
		./internal/node/... \
		./internal/gloo/... \
		./internal/horovod/...

# fuzz-smoke: ten seconds of native fuzzing per target, each starting
# from its checked-in corpus: the agreement message decoder and the
# control handler's delivery switch (internal/mpi/testdata/fuzz), then
# the wire codec's DecodePayload/ParseRawPayload pair
# (internal/transport/testdata/fuzz), then the tcpnet frame reader and
# its lazy raw-payload hand-off (internal/transport/tcpnet/testdata/fuzz),
# then the gossip packet decoder and a node handling what it decodes
# (internal/gossip/testdata/fuzz), then the -scale-policy schedule
# parser (internal/autopilot/testdata/fuzz).
# A crasher lands there as a new corpus file and fails every later
# `go test`.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzAgreeMessage -fuzztime=10s ./internal/mpi/
	$(GO) test -run='^$$' -fuzz=FuzzDecodePayload -fuzztime=10s ./internal/transport/
	$(GO) test -run='^$$' -fuzz=FuzzReadFrame -fuzztime=10s ./internal/transport/tcpnet/
	$(GO) test -run='^$$' -fuzz=FuzzGossipPacket -fuzztime=10s ./internal/gossip/
	$(GO) test -run='^$$' -fuzz=FuzzParseSchedule -fuzztime=10s ./internal/autopilot/

# fp16-exhaustive: every float32 bit pattern through EncodeF16,
# EncodeQuantizeF16 and QuantizeF16, compared with the reference scalar
# encoder kept in internal/transport/f16_test.go, split across GOMAXPROCS
# (about 80 s on two cores). Plain `go test` checks the rounding
# boundaries only.
fp16-exhaustive:
	$(GO) test -count=1 -timeout 30m -run '^TestF16EncodeExhaustive$$' ./internal/transport/ -f16.exhaustive

chaos:
	@for seed in $(SEEDS); do \
		echo "=== chaos seed $$seed ==="; \
		$(GO) test -race -count=1 ./internal/transport/chaos/ \
			-run 'TestChaosConformance|TestAgreeUniformUnderReorder|TestPresetsLeaveNoAgreementBehind' \
			-chaos.seed="$$seed" || exit 1; \
	done

# cluster: the same nine recovery scenarios, driven through the
# clustertest harness with SWIM gossip as the only failure detector.
cluster:
	@for seed in $(SEEDS); do \
		echo "=== cluster world $(CLUSTER_WORLD) seed $$seed ==="; \
		$(GO) test -count=1 -timeout 20m ./internal/clustertest/ \
			-run TestClusterConformance \
			-cluster.world=$(CLUSTER_WORLD) -cluster.seed="$$seed" || exit 1; \
	done

# grow: the four grow-path elasticity scenarios — spare-swap-on-kill,
# scheduled scale-up, kill-during-state-transfer, flapping autoscale —
# under -race, like the grow-scenarios CI leg.
grow:
	@for seed in $(SEEDS); do \
		echo "=== grow world $(CLUSTER_WORLD) seed $$seed ==="; \
		$(GO) test -race -count=1 -timeout 20m ./internal/clustertest/ \
			-run TestGrowConformance \
			-cluster.world=$(CLUSTER_WORLD) -cluster.seed="$$seed" || exit 1; \
	done

# policy: the six recovery-policy conformance scenarios — rigged costs
# select each strategy in turn, correlated/cascade/gray chaos shapes
# drive the classifier — under -race, like the policy-scenarios CI leg.
policy:
	@for seed in $(SEEDS); do \
		echo "=== policy world $(CLUSTER_WORLD) seed $$seed ==="; \
		$(GO) test -race -count=1 -timeout 20m ./internal/clustertest/ \
			-run TestPolicyConformance \
			-cluster.world=$(CLUSTER_WORLD) -cluster.seed="$$seed" || exit 1; \
	done

# cover: per-package statement coverage, gated. internal/obs carries an
# absolute 70% floor; transport/mpi/ulfm must stay within 2 points of the
# committed COVERAGE_baseline.json. Regenerate the baseline after an
# intentional change with:
#   go run ./cmd/covergate -profile cover.out -baseline COVERAGE_baseline.json -write \
#     -track repro/internal/transport -track repro/internal/transport/tcpnet \
#     -track repro/internal/mpi -track repro/internal/ulfm
cover:
	$(GO) test ./... -coverprofile=cover.out -covermode=atomic
	$(GO) run ./cmd/covergate -profile cover.out \
		-floor repro/internal/obs=70 \
		-floor repro/internal/gossip=70 \
		-floor repro/internal/clustertest=70 \
		-floor repro/internal/autopilot=70 \
		-floor repro/internal/analysis/driver=70 \
		-floor repro/internal/policy=70 \
		-floor repro/internal/node=70 \
		-baseline COVERAGE_baseline.json -maxdrop 2
	$(GO) tool cover -html=cover.out -o cover.html

# bench-gate: remeasure the gossip control plane (deterministic virtual
# time, under a second) and gate it against the committed
# BENCH_controlplane.json (>10% is a failure; the one wall-clock row,
# the policy decision latency, has a 200 us ceiling). The data plane is
# measured end to end by `make bench`.
bench-gate:
	$(GO) run ./cmd/benchtab -controlplane fresh_controlplane.json
	$(GO) run ./cmd/benchgate -fresh fresh_controlplane.json \
		-tolerance 0.10 -max-decision-us 200

# bench-check: bench/ is a module of its own, so nothing above descends
# into it. This is what notices a change that breaks the benchmark's
# compile surface (the layers' public calls its probe uses) or a log line
# it parses: its tests play one real kill episode of the shipped elasticd
# against the oracle (~3 s).
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench: one elasticbench workload end to end, as BENCHMARK.json runs it.
WORKLOAD ?= kill_shrink
SEED     ?= 1
SECONDS  ?= 16
bench:
	bash bench/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds $(SECONDS) --trace 0

# bench-aa: the same tree against itself. What two runs of identical code
# differ by is the least an A/B of two trees can resolve; read it before
# believing a small delta (ROADMAP 1e).
bench-aa:
	bash bench/run.sh --aa --seconds 6

check: build vet lint test race fuzz-smoke fp16-exhaustive bench-check chaos cluster grow policy

clean:
	rm -rf $(BIN) .bench_build cover.out cover.html fresh_controlplane.json
