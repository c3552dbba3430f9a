# The tier-1 gate: everything `make ci` runs must stay green on every
# commit (see ROADMAP.md). The emvet step keeps the example corpus clean
# under the mobility-soundness analyzer on every ISA; the emtrace and
# benchjson smokes keep the observability exports loadable. No recipe
# spells a run-shaping emrun flag: what the chaos, directory, parallel and
# placement command lines must print is pinned by `go test` (TestCommandLines
# in internal/core), under -race in the `race` step.

GO ?= go

.PHONY: ci build test vet emvet race emtrace-smoke benchjson-smoke bench-smoke fuzz-smoke pta-smoke auto-smoke dir-smoke jit-smoke emperf-smoke emperf-pairs bench-baselines

ci: vet build race emvet emtrace-smoke benchjson-smoke bench-smoke fuzz-smoke pta-smoke auto-smoke dir-smoke jit-smoke emperf-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# vet also holds the tree to gofmt: any file `gofmt -l` names fails the gate.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

emvet:
	$(GO) run ./cmd/emvet examples/programs/*.em

# A Chrome trace of the kilroy tour must export and parse as JSON.
emtrace-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/emtrace -chrome .ci/kilroy_trace.json -metrics .ci/kilroy_metrics.json examples/programs/kilroy.em
	$(GO) run ./tools/jsoncheck .ci/kilroy_trace.json .ci/kilroy_metrics.json

# embench table1 must write parseable BENCH_table1.json, and the fresh
# simulated metrics must stay within 20% of the committed baseline (the
# simulation is deterministic, so real drift means a behavior change;
# refresh deliberately with `make bench-baselines`).
benchjson-smoke:
	$(GO) run ./cmd/embench -out .ci -baseline . table1 > /dev/null
	$(GO) run ./tools/jsoncheck .ci/BENCH_table1.json

# Every Go benchmark must still run (one iteration): keeps the benchmark
# corpus and its AllocsPerRun/metric plumbing from bit-rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Adaptive placement: the policy study must reproduce its committed
# BENCH_auto.json baseline (greedy-colocate collapsing remote traffic,
# batched cohort moves costing fewer wire bytes per object than singles).
auto-smoke:
	$(GO) run ./cmd/embench -out .ci -baseline . auto > /dev/null
	$(GO) run ./tools/jsoncheck .ci/BENCH_auto.json

# The directory overhead study must match its committed baseline.
dir-smoke:
	$(GO) run ./cmd/embench -out .ci -baseline . dir > /dev/null
	$(GO) run ./tools/jsoncheck .ci/BENCH_dir.json

# The dispatch-tier study: the legacy reference stepper and the fused
# superinstruction executor must agree on every simulated observable, and
# the deterministic fields of BENCH_jit.json (instrs, cycles, fused run
# structure) must match the committed baseline. The emulated-MIPS fields
# are host wall-clock and carry the "host" prefix the comparator skips.
jit-smoke:
	$(GO) run ./cmd/embench -out .ci -baseline . jit > /dev/null
	$(GO) run ./tools/jsoncheck .ci/BENCH_jit.json

# bench/ is a nested module that root `go vet/test ./...` never compiles:
# vet it and run its 1/50-scale pass of all five workloads, so a break of
# the import surface it freezes (bench/README.md) is found here — by
# compiling the benchmark as committed, never by editing it to fit.
emperf-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...
	git diff --quiet HEAD -- bench BENCHMARK.json

# The emperf ledger's measuring protocol (EXPERIMENTS.md): build the
# benchmark from `git archive $(REF)` and from the working tree, run N
# alternating pairs of one workload, print medians, quartiles, pairs won
# (W=all: the five workloads in turn, one table each):
#   make emperf-pairs W=chaos_tour [N=10] [REF=HEAD]
N ?= 10
REF ?= HEAD
emperf-pairs:
	$(GO) run ./tools/pairbench -w $(W) -n $(N) -ref $(REF)

# Regenerate the committed BENCH_*.json baselines (run after a deliberate
# model change, then commit the diff).
bench-baselines:
	$(GO) run ./cmd/embench table1 > /dev/null
	$(GO) run ./cmd/embench fig2 > /dev/null
	$(GO) run ./cmd/embench conv > /dev/null
	$(GO) run ./cmd/embench auto > /dev/null
	$(GO) run ./cmd/embench dir > /dev/null
	$(GO) run ./cmd/embench jit > /dev/null

# The fuzz seeds of the wire decoder (bounds-checked frame/message parsing),
# of the -chaos plan grammar and of the .em front end and code generator
# (every bus stop heads a fusion run) must hold; full fuzzing runs
# separately with -fuzz.
fuzz-smoke:
	$(GO) test -run FuzzMsgDecode ./internal/wire
	$(GO) test -run FuzzParsePlan ./internal/chaos
	$(GO) test -run FuzzCompile ./internal/codegen

# The points-to object-graph report must build for the whole corpus, find
# at least one group-migration cohort in producer_consumer, and be
# byte-identical across repeated solves (ptacheck re-solves 5x).
pta-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/emvet -graph examples/programs/*.em > .ci/pta_graph.out
	grep -q '^cohort ' .ci/pta_graph.out
	$(GO) run ./cmd/emvet -graph examples/programs/producer_consumer.em | grep -q '^cohort '
	$(GO) run ./tools/ptacheck examples/programs/*.em
