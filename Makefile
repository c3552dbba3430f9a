# The tier-1 gate: everything `make ci` runs must stay green on every
# commit (see ROADMAP.md). The emvet step keeps the example corpus clean
# under the mobility-soundness analyzer on every ISA and the baseline smoke
# keeps every committed BENCH_*.json reproducible (that emtrace's Chrome
# trace and metrics parse as JSON is go test's: cmd/emtrace
# TestTraceDirectoryRun, core TestChromeTraceGoldenTwoHop). No recipe
# spells a run-shaping emrun flag: what the chaos, directory, parallel and
# placement command lines must print is pinned by `go test` (TestCommandLines
# in internal/core), under -race in the `race` step.

GO ?= go

.PHONY: ci build test vet emvet race baseline-smoke bench-smoke fuzz-smoke pta-smoke emperf-smoke emperf-pairs census bench-baselines

ci: vet build race emvet baseline-smoke bench-smoke fuzz-smoke pta-smoke emperf-smoke

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

# Every committed BENCH_*.json baseline must reproduce: one embench run
# rewrites them under .ci and compares each with its committed copy,
# parsing both; the gate is exact, `host*` fields aside. The simulation is
# deterministic, so any difference means a behavior change (refresh
# deliberately with `make bench-baselines`). In the dispatch-tier study (jit) the reference
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

# The code census (ROADMAP emcut), run by hand and kept out of ci (about a
# minute): which non-test functions does no shipped surface execute? Every
# command is cover-built and run into one GOCOVERDIR: emc's listings and
# emvet (diagnostics, -graph, -passes) over the corpus, emvet over its own
# defect corpus and emc over testdata/census's ill-formed programs (a lexer,
# a parse and a type error: the front end's error paths); emrun over the
# corpus, both engines, and the run-shaping rows of TestCommandLines (chaos,
# directory with leases, both placement policies) plus the reference
# emulator, vet-on-load and the text trace; emtrace's four exports and its
# faults report; every embench study, gated on the committed baselines;
# the 1/50-scale benchmark. The merged profile's 0.0% functions, as "file
# function" lines, go to .ci/census.txt, and the census fails when one of
# them is not listed in the committed testdata/census.txt (three
# consecutive runs give the same list). The repro/bench/ lines are
# dropped: `go tool cover -func` cannot resolve the nested module's package.
CENSUS := $(CURDIR)/.ci/census
CENSUS_CHAOS := seed=7,drop=0.05,dup=0.03,delay=0.05:500us,corrupt=0.02,crash=2@76ms:156ms
census:
	rm -rf $(CENSUS)
	mkdir -p $(CENSUS)/cov $(CENSUS)/out
	for c in emc emvet emrun emtrace embench; do $(GO) build -cover -coverpkg=repro/... -o $(CENSUS)/$$c ./cmd/$$c || exit 1; done
	$(GO) -C bench build -cover -coverpkg=repro/... -o $(CENSUS)/bench .
	export GOCOVERDIR=$(CENSUS)/cov; set -e; \
	for f in examples/programs/*.em; do \
		$(CENSUS)/emc -S -t -stops $$f > /dev/null; \
		$(CENSUS)/emrun $$f > /dev/null; \
		$(CENSUS)/emrun -parallel $$f > /dev/null; \
	done; \
	$(CENSUS)/emvet examples/programs/*.em > /dev/null; \
	$(CENSUS)/emvet -passes > /dev/null; \
	$(CENSUS)/emvet -graph examples/programs/*.em > /dev/null; \
	$(CENSUS)/emvet internal/vet/testdata/*.em > /dev/null || [ $$? -eq 1 ]; \
	for f in testdata/census/*.em; do \
		if $(CENSUS)/emc $$f > /dev/null 2>&1; then echo "$$f compiled"; exit 1; fi; \
	done; \
	$(CENSUS)/emrun -chaos $(CENSUS_CHAOS) examples/programs/kilroy.em > /dev/null; \
	$(CENSUS)/emrun -dir 3 -dir-lease 2000000 examples/programs/kilroy.em > /dev/null; \
	$(CENSUS)/emrun -dir 3 -chaos $(CENSUS_CHAOS) examples/programs/kilroy.em > /dev/null; \
	$(CENSUS)/emrun -auto greedy-colocate -auto-log examples/programs/zipf_hot.em > /dev/null 2>&1; \
	$(CENSUS)/emrun -auto load-balance -auto-log examples/programs/fixed_pool.em > /dev/null 2>&1; \
	$(CENSUS)/emrun -legacy examples/programs/kilroy.em > /dev/null; \
	$(CENSUS)/emrun -trace examples/programs/kilroy.em > /dev/null 2>&1; \
	$(CENSUS)/emrun -vetload examples/programs/producer_consumer.em > /dev/null; \
	$(CENSUS)/emtrace -chrome $(CENSUS)/out/t.json -metrics $(CENSUS)/out/m.json -text -spans examples/programs/kilroy.em > /dev/null 2>&1; \
	$(CENSUS)/emtrace faults -chaos $(CENSUS_CHAOS) examples/programs/kilroy.em > /dev/null; \
	$(CENSUS)/embench -out $(CENSUS)/out -baseline . all > /dev/null; \
	$(CENSUS)/bench -quick > /dev/null
	$(GO) tool covdata textfmt -i=$(CENSUS)/cov -o $(CENSUS)/all.cov
	grep -v '^repro/bench/' $(CENSUS)/all.cov > $(CENSUS)/repro.cov
	$(GO) tool cover -func=$(CENSUS)/repro.cov | awk '$$NF == "0.0%" { sub(/:[0-9]+:$$/, "", $$1); print $$1, $$2 }' | LC_ALL=C sort > .ci/census.txt
	@echo "$$(wc -l < .ci/census.txt) functions never run: .ci/census.txt"
	@LC_ALL=C comm -13 .ci/census.txt testdata/census.txt > $(CENSUS)/reached.txt; \
	if [ -s $(CENSUS)/reached.txt ]; then echo "$$(wc -l < $(CENSUS)/reached.txt) listed functions now run or are gone: shrink testdata/census.txt"; fi
	@LC_ALL=C comm -23 .ci/census.txt testdata/census.txt > $(CENSUS)/unlisted.txt; \
	if [ -s $(CENSUS)/unlisted.txt ]; then echo "never run and not listed in testdata/census.txt:"; cat $(CENSUS)/unlisted.txt; exit 1; fi

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

# The points-to object-graph report must build for the whole corpus and find
# at least one group-migration cohort in producer_consumer (that repeated
# solves agree is pta.TestReportDeterministic's, under go test).
pta-smoke:
	mkdir -p .ci
	$(GO) run ./cmd/emvet -graph examples/programs/*.em > .ci/pta_graph.out
	grep -q '^cohort ' .ci/pta_graph.out
	$(GO) run ./cmd/emvet -graph examples/programs/producer_consumer.em | grep -q '^cohort '
