# The tier-1 gate: everything `make ci` runs must stay green on every
# commit (see ROADMAP.md). The emvet step keeps the example corpus clean
# under the mobility-soundness analyzer on every ISA; the emtrace smoke
# keeps the observability exports loadable and the baseline smoke keeps
# every committed BENCH_*.json reproducible. No recipe
# spells a run-shaping emrun flag: what the chaos, directory, parallel and
# placement command lines must print is pinned by `go test` (TestCommandLines
# in internal/core), under -race in the `race` step.

GO ?= go

.PHONY: ci build test vet emvet race emtrace-smoke baseline-smoke bench-smoke fuzz-smoke pta-smoke emperf-smoke emperf-pairs census bench-baselines

ci: vet build race emvet emtrace-smoke baseline-smoke bench-smoke fuzz-smoke pta-smoke emperf-smoke

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

# Every committed BENCH_*.json baseline must reproduce: one embench run
# rewrites them under .ci and compares each with its committed copy,
# parsing both; a simulated metric drifting more than 20% or any
# structural change fails. The simulation is deterministic, so real drift
# means a behavior change (refresh deliberately with `make
# bench-baselines`). In the dispatch-tier study (jit) the reference
# stepper and the fused executor must also agree on every simulated
# observable; its emulated-MIPS fields are host wall-clock and carry the
# "host" prefix the comparator skips.
baseline-smoke:
	$(GO) run ./cmd/embench -out .ci -baseline . table1 fig2 conv auto dir jit > /dev/null

# Every Go benchmark must still run (one iteration): keeps the benchmark
# corpus and its AllocsPerRun/metric plumbing from bit-rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

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

# The code census (ROADMAP emcut), run by hand and kept out of ci: which
# non-test functions does no shipped surface execute? Cover-built emrun,
# embench and bench run the example corpus, every embench study and the
# 1/50-scale workloads, each into its own GOCOVERDIR; the merged profile's
# 0.0% functions are written to .ci/census.txt. The repro/bench/ lines go
# first: `go tool cover -func` cannot resolve the nested module's package.
CENSUS := $(CURDIR)/.ci/census
census:
	rm -rf $(CENSUS)
	mkdir -p $(CENSUS)/emrun $(CENSUS)/embench $(CENSUS)/bench $(CENSUS)/out
	$(GO) build -cover -coverpkg=repro/... -o $(CENSUS)/emrun.bin ./cmd/emrun
	$(GO) build -cover -coverpkg=repro/... -o $(CENSUS)/embench.bin ./cmd/embench
	$(GO) -C bench build -cover -coverpkg=repro/... -o $(CENSUS)/bench.bin .
	for f in examples/programs/*.em; do GOCOVERDIR=$(CENSUS)/emrun $(CENSUS)/emrun.bin $$f > /dev/null || exit 1; done
	GOCOVERDIR=$(CENSUS)/embench $(CENSUS)/embench.bin -out $(CENSUS)/out all > /dev/null
	GOCOVERDIR=$(CENSUS)/bench $(CENSUS)/bench.bin -quick > /dev/null
	$(GO) tool covdata textfmt -i=$(CENSUS)/emrun,$(CENSUS)/embench,$(CENSUS)/bench -o $(CENSUS)/all.cov
	grep -v '^repro/bench/' $(CENSUS)/all.cov > $(CENSUS)/repro.cov
	$(GO) tool cover -func=$(CENSUS)/repro.cov | awk '$$NF == "0.0%"' > .ci/census.txt
	@echo "$$(wc -l < .ci/census.txt) functions never run: .ci/census.txt"

# Regenerate the committed BENCH_*.json baselines (run after a deliberate
# model change, then commit the diff).
bench-baselines:
	$(GO) run ./cmd/embench table1 fig2 conv auto dir jit > /dev/null

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
