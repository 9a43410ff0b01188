GO ?= go
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: build test vet fmt ci smoke orphans datalog-serial datalog-one-store datalog-no-placement durable-opaque-rows one-tick-path compiled-handlers bench-test tables fuzz soak testbin test-sharded test-failover serve-bench serve-soak tick-allocs lines

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails, listing each file, if a Go file (bench/ included) is not as
# gofmt prints it.
fmt:
	@gofmt -l . | sed 's/^/unformatted: /' | (! grep .)

# ci runs the steps of CI's tier-1 job in its order (go test without -race).
ci: build vet fmt orphans datalog-serial datalog-one-store datalog-no-placement durable-opaque-rows one-tick-path compiled-handlers test tick-allocs bench-test fuzz tables smoke

# lines prints the line counts of the Go files a change is sized by:
# non-test and test files outside bench/, and under it (hidden build
# directories skipped).
GO_FILES = $(shell find . -name '*.go' ! -path './.*')
GO_MAIN = $(filter-out ./bench/%,$(GO_FILES))
GO_BENCH = $(filter ./bench/%,$(GO_FILES))
lines:
	@printf '%-34s %7d\n' \
		'non-test .go outside bench/:' $$(cat $(filter-out %_test.go,$(GO_MAIN)) | wc -l) \
		'test .go outside bench/:' $$(cat $(filter %_test.go,$(GO_MAIN)) | wc -l) \
		'non-test .go under bench/:' $$(cat $(filter-out %_test.go,$(GO_BENCH)) | wc -l) \
		'test .go under bench/:' $$(cat $(filter %_test.go,$(GO_BENCH)) | wc -l)

# smoke runs every binary a reader is pointed at: the compiler on the COVID
# program (its report must reach the metaconsistency check), the covidd
# deployment demo, and each example. It fails on a non-zero exit.
SMOKE_EXAMPLES = actors cart futures mpi quickstart
smoke:
	$(GO) run ./cmd/hydroc -covid | grep metaconsistency
	$(GO) run ./cmd/covidd > /dev/null
	@for ex in $(SMOKE_EXAMPLES); do \
		echo "$(GO) run ./examples/$$ex"; \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done

# bench-test vets, compiles and tests the nested bench/ module (own
# go.mod, so `go vet ./...`, `go build ./...` and `go test ./...` at the
# root never see it): a change to the shard/datalog/serve surface the
# end-to-end benchmark imports fails here instead of at the next benchmark
# run.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# orphans fails if an internal/ package is on no path from a cmd/, an
# example, the public hydro API or the bench/ module (ROADMAP aim 2):
# code that only its own tests import gets wired in or deleted. Its second
# check fails if cmd/benchtab is a package's only path: an experiment
# measures the system that serves requests, not a toy beside it, so only
# internal/experiments itself may hang off benchtab alone.
orphans:
	@comm -23 <($(GO) list ./internal/... | sort) \
		<({ $(GO) list -deps ./cmd/... ./examples/... . ; cd bench && $(GO) list -deps ./... ; } | sort -u) \
		| sed 's/^/orphan package: /' | (! grep .)
	@comm -23 <($(GO) list ./internal/... | grep -vx hydro/internal/experiments | sort) \
		<({ $(GO) list -deps $$($(GO) list ./cmd/... ./examples/... . | grep -vx hydro/cmd/benchtab) ; \
			cd bench && $(GO) list -deps ./... ; } | sort -u) \
		| sed 's/^/reached only through cmd\/benchtab: /' | (! grep .)

# datalog-serial fails if internal/datalog stops being single-threaded by
# construction: a go statement, or a runtime, sync or sync/atomic import, in
# a non-test file (DESIGN.md §8, "One evaluator thread"): a program is
# compiled when NewProgram makes it, so nothing needs a once or a lock.
datalog-serial:
	@! grep -nE --exclude='*_test.go' '^[[:space:]]*go[[:space:]]|"runtime"|"sync"|"sync/atomic"' internal/datalog/*.go

# datalog-one-store fails if internal/datalog grows a second tuple store or a
# second rule walker (DESIGN.md §6). In its non-test files there is no
# map[uint64] at all (membership, column indexes and group tables are the
# open-addressed tables of index.go, not Go maps), no []Tuple or []any field
# in Relation, colIndex, planExec or the round buffers (roundBufs, rowList,
# headRows) — so boxed rows cannot come back as a cache beside the slabs —
# no []int field in Relation — a relation is a set, so no per-slot side
# column (a count, a sign) rides beside its rows — and the interpretive binding / evalFilter walk is referenced only where it
# is defined (rule.go) and by eval.go's deriveRule, the oracle the
# differential tests compare the compiled plans against. Comments are
# stripped first: the check reads declarations and call sites, not prose.
DATALOG_SRC = $(filter-out %_test.go,$(wildcard internal/datalog/*.go))
datalog-one-store:
	@! grep -nE 'map\[uint64\]' $(DATALOG_SRC) | sed 's,//.*,,' | grep -F 'map[uint64]'
	@awk '{code=$$0; sub(/\/\/.*/,"",code)} \
		code ~ /^type (Relation|colIndex|planExec|roundBufs|rowList|headRows) struct/ {in_store=1} \
		code ~ /^type Relation struct/ {in_rel=1} \
		in_store && code ~ /\[\](Tuple|any)/ {print FILENAME":"FNR": boxed rows in a flat store: "$$0; bad=1} \
		in_rel && code ~ /\[\]int([^[:alnum:]_]|$$)/ {print FILENAME":"FNR": a per-slot side column in Relation: "$$0; bad=1} \
		code ~ /^}/ {in_store=0; in_rel=0} END{exit bad}' $(DATALOG_SRC)
	@awk '/^func /{fn=$$2} \
		{code=$$0; sub(/\/\/.*/,"",code)} \
		code ~ /(^|[^[:alnum:]_"])binding([{(),]|$$)|evalFilter\(/ && !(FILENAME ~ /eval\.go$$/ && fn ~ /^deriveRule\(/) \
		{print FILENAME":"FNR": "$$0; bad=1} END{exit bad}' $(filter-out %/rule.go,$(DATALOG_SRC))

# datalog-no-placement fails if a non-test file of internal/datalog names
# ShardOf, PartitionHints, partCol or fnvOffset (comments stripped, as
# above): which replica owns a row — the join-column vote and the FNV
# value hash — is decided in internal/shard alone, and datalog knows of
# sharding only Site and Components (DESIGN.md §11).
PLACEMENT_BANNED = ShardOf|PartitionHints|partCol|fnvOffset
datalog-no-placement:
	@! grep -nE '$(PLACEMENT_BANNED)' $(DATALOG_SRC) | sed 's,//.*,,' | grep -E '$(PLACEMENT_BANNED)'

# durable-opaque-rows fails if a non-test file of internal/durable names
# datalog.Tuple, datalog.DeltaOp, appendTuple or readTuple (comments
# stripped, as above): how rows leave an evaluator is internal/datalog's
# one Batch, and the durable layer frames batches without knowing what a
# tuple is (DESIGN.md §10).
DURABLE_SRC = $(filter-out %_test.go,$(wildcard internal/durable/*.go))
DURABLE_BANNED = datalog\.Tuple|datalog\.DeltaOp|appendTuple|readTuple
durable-opaque-rows:
	@! grep -nE '$(DURABLE_BANNED)' $(DURABLE_SRC) | sed 's,//.*,,' | grep -E '$(DURABLE_BANNED)'

# one-tick-path fails if a non-test file of internal/transducer,
# internal/hydrolysis or internal/shard copies state or evaluates from
# scratch: .Clone(), .Eval(, .EvalNaive( or datalog.Derive( (comments
# stripped, as above). Handlers read the runtime database through compiled
# plans, and the fixpoint — on one node or on every shard replica — is
# maintained from deltas by datalog's one engine (DESIGN.md §8); copies and
# from-scratch evaluation belong to oracles and experiments, not to the tick.
TICK_SRC = $(filter-out %_test.go,$(wildcard internal/transducer/*.go internal/hydrolysis/*.go internal/shard/*.go))
TICK_BANNED = \.Clone\(\)|\.Eval\(|\.EvalNaive\(|datalog\.Derive\(
one-tick-path:
	@! grep -nE '$(TICK_BANNED)' $(TICK_SRC) | sed 's,//.*,,' | grep -E '$(TICK_BANNED)'

# compiled-handlers fails if a non-test file outside internal/hydrolysis and
# internal/transducer builds a runtime or registers a handler itself:
# transducer.New( or .RegisterHandler( (comments stripped, as above). Every
# handler the system runs is compiled from HydroLogic, Appendix A's actors,
# futures and MPI collectives and the §7.1 cart included.
HANDLER_SRC = $(shell find . -name '*.go' ! -name '*_test.go' ! -path './internal/hydrolysis/*' ! -path './internal/transducer/*' ! -path './.*')
HANDLER_BANNED = transducer\.New\(|\.RegisterHandler\(
compiled-handlers:
	@! grep -nE '$(HANDLER_BANNED)' $(HANDLER_SRC) | sed 's,//.*,,' | grep -E '$(HANDLER_BANNED)'

# tables prints every experiment table at -quick sizes, then replays the
# pinned -quick tables (internal/experiments/testdata/quick.golden) on one
# scheduler thread: their bytes must not depend on GOMAXPROCS.
tables:
	$(GO) run ./cmd/benchtab -quick
	GOMAXPROCS=1 $(GO) test -count=1 -run '^TestQuickTablesGolden$$' ./internal/experiments

# fuzz is the generative smoke run CI executes on every PR: beyond the
# committed seed corpus (which plain `go test` already replays), it spends
# FUZZTIME on each target: tick sequences of interleaved inserts/deletes
# against the three-way incremental equivalence oracle, the same against the
# sharded deployment, snapshot images and changelog records fed to
# recovery (refused or re-encoded to themselves, never a panic), and
# HydroLogic sources that
# Parse never panics on and that Format then Parse returns unchanged.
# Minimizing a new interesting input is capped at 2 s: Go's default of 60 s
# would spend most of each target's budget minimizing instead of fuzzing.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzIncrementalEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/datalog
	$(GO) test -run '^$$' -fuzz FuzzShardedEquivalence -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzSnapshotImage -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzChangelogImage -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/durable
	$(GO) test -run '^$$' -fuzz FuzzHLangRoundTrip -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/hlang

# test-sharded is the distributed-dataflow gate: the sharded-vs-single-node
# equivalence suite (SHARD_COUNTS picks the replica counts under test) plus
# the simnet chaos/churn tests, all under -race.
SHARD_COUNTS ?= 1,2,4
test-sharded:
	SHARD_COUNTS=$(SHARD_COUNTS) $(GO) test -race -run 'TestSharded|TestSink|TestPlacement|TestDeclared|FuzzShardedEquivalence' ./internal/shard ./internal/simnet

# test-failover is the replicated-control-plane gate (DESIGN.md §13): the
# leader-kill/partition chaos suite at every coordinator stage, the 50-seed
# randomized failover sweep against the single-coordinator oracle, the
# epoch-fencing regression, the 50-seed election-determinism sweep, and the
# Paxos layer's own leader-crash, partition-heal, proposer-recovery and
# learn-suffix tests — all under -race.
FAILOVER_TESTS = TestFailover|TestDeposed|TestCoordinator|TestElectionDeterminism|TestRepeatedLeaderCrashes|TestLeaderFailoverReproposesValue|TestSafetyAcrossPartitionAndHeal|TestRecoveredProposerResumesInFlightValue|TestLearnReturnsSuffix
test-failover:
	$(GO) test -race -run '$(FAILOVER_TESTS)' ./internal/shard ./internal/consensus

# testbin compiles every package's test binary (without running it) into
# the git-ignored $(TESTBIN_DIR) — use this instead of bare `go test -c`,
# which litters the repo root with *.test files.
TESTBIN_DIR ?= .testbin
testbin:
	@mkdir -p $(TESTBIN_DIR)
	@for pkg in $$($(GO) list ./...); do \
		$(GO) test -c -o $(TESTBIN_DIR)/$$(basename $$pkg).test $$pkg || exit 1; \
	done
	@ls -1 $(TESTBIN_DIR)

# soak hammers the crash-recovery harness well past the checked-in seed
# budget, under -race, with clock-derived seeds so every run explores new
# kill points. Each seed kills a durable store at a random write offset
# and requires byte-identical recovery against a never-crashed oracle
# (DESIGN.md §10). SOAK_SEEDS/SOAK_TICKS scale the run.
SOAK_SEEDS ?= 300
SOAK_TICKS ?= 60
soak: test-failover
	$(GO) test -race -run '^TestCrashRecovery$$' ./internal/durable -crash-seeds $(SOAK_SEEDS) -crash-ticks $(SOAK_TICKS) -crash-rand

# serve-bench is the serving-path perf snapshot: the ingestion benchmarks
# (per-message vs batched), the serving shell alone, and the COVID program
# served with the end-to-end benchmark's configuration (BenchmarkServeCovid;
# add -cpuprofile/-memprofile to profile it).
serve-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkServe' -benchmem ./internal/serve

# serve-soak is the serving-path correctness gate, scaled past the default
# suite: the batched≡serial equivalence sweep (admission order pinned), its
# concurrent-submitter executed-order twin, the
# fan-out-into-shard-deployment sweep, every server-shell test
# (deadline/close/gauge regressions included) and the
# batched-beats-per-message throughput gate, all under -race.
SERVE_SEEDS ?= 60
SERVE_REQS ?= 150
serve-soak:
	$(GO) test -race -run 'TestServe|TestBatched|TestConcurrentSubmitters|TestFanout' ./internal/serve -serve-seeds $(SERVE_SEEDS) -serve-reqs $(SERVE_REQS)

# tick-allocs is the allocation budget of a warm fan-out tick: 64 messages
# each sending 256 derived rows to an observation mailbox may allocate per
# message beyond the derivations, never per row. Without -race, which
# inflates allocation counts (the test skips itself under it).
tick-allocs:
	$(GO) test -count=1 -run '^TestWarmFanoutTickAllocs$$' -v ./internal/transducer
