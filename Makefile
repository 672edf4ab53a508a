GO ?= go

.PHONY: check vet build test race bench benchsmoke benchcmp gobench profile fuzz

# The tier-1 gate plus the race detector and a bench compile smoke — run
# before every commit.
check: vet build race benchsmoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Compile-and-run-once smoke over every benchmark in the repo, so bench
# code cannot rot between perf PRs.
benchsmoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Native fuzzing smoke: each target gets FUZZTIME of coverage-guided
# input generation on top of its checked-in testdata/fuzz corpus (which
# alone is replayed by plain `go test`). New crashers are written under
# testdata/fuzz/<Target>/ — check them in as regressions.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzMessageCodec$$' -fuzztime=$(FUZZTIME) ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzRandomConnectedSchedule$$' -fuzztime=$(FUZZTIME) ./internal/dynnet
	$(GO) test -run='^$$' -fuzz='^FuzzFaultPlan$$' -fuzztime=$(FUZZTIME) ./internal/faults
	$(GO) test -run='^$$' -fuzz='^FuzzSolverWitness$$' -fuzztime=$(FUZZTIME) ./internal/historytree
	$(GO) test -run='^$$' -fuzz='^FuzzProtocolEquivalence$$' -fuzztime=$(FUZZTIME) ./internal/linear
	$(GO) test -run='^$$' -fuzz='^FuzzViewSizer$$' -fuzztime=$(FUZZTIME) ./internal/linear
	$(GO) test -run='^$$' -fuzz='^FuzzRelaySettled$$' -fuzztime=$(FUZZTIME) ./internal/engine

# Run the benchmark-regression suite and record BENCH_PR9.json (see
# EXPERIMENTS.md, "Perf appendix").
bench:
	$(GO) run ./cmd/benchreport -out BENCH_PR9.json

# Compare two BENCH_*.json reports; fails on >20% ns/op regression
# (override per entry with -tol NAME=FRAC through EXTRA).
# Usage: make benchcmp BASE=BENCH_PR8.json [NEW=BENCH_PR9.json]
BASE ?= BENCH_PR8.json
NEW ?= BENCH_PR9.json
benchcmp:
	$(GO) run ./cmd/benchreport -compare -old $(BASE) -new $(NEW)

# Capture CPU + allocation pprof profiles of one suite entry (default:
# the E2 counting run, the repo's end-to-end hot path — its profile lands
# in the schedule generator, routing and the per-process broadcast steps;
# see ROADMAP.md item 1). See README "Profiling" for how to read the
# artifacts.
# Usage: make profile [BENCH=E2Count] [PROFDIR=profiles]
BENCH ?= E2Count
PROFDIR ?= profiles
profile:
	$(GO) run ./cmd/benchreport -bench '$(BENCH)' \
		-cpuprofile $(PROFDIR)/cpu.pprof -memprofile $(PROFDIR)/mem.pprof

# The raw testing.B entries (one per reproduction experiment).
gobench:
	$(GO) test -bench=. -benchmem -run=^$$ .
