# Tier-1 gate (see ROADMAP.md): every PR must leave `make check` green —
# vet (root and bench/), two source gates (errgate, fmtgate), build, `go test -race ./...`, the allocation guards without
# the race detector, digests, and the benchmark's own tests (bench-smoke).
# Outside the gate, run before a change to concurrent code: `make stress`
# repeats, under the race detector at GOMAXPROCS 1, 2 and 8, five times
# each, the five packages whose raw-goroutine tests reach a host lock (the
# LSM engine; the file system, the page cache, the range tree and the
# library, each under its one lock, and the library's rings under theirs),
# the two that hand threads a baton (simtime's group, the workload driver),
# and the predictor arms the library drives per inode. On two cores the LSM engine
# alone takes about 26 minutes and crosslib 11, hence the explicit timeout
# (go test's default is ten). PKG runs one package's ladder alone, as for
# `size`: `make stress PKG=./internal/pagecache` after a concurrency change
# to the page cache. `make flake` hunts flaky tests (see below); it is not
# part of `check` either.
.PHONY: check build test vet race allocs flake stress fuzz size bench bench-smoke chaos digests records errgate fmtgate trace

check: vet errgate fmtgate build race allocs digests bench-smoke

# Formatting gate: the tree must be gofmt-clean.
fmtgate:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmtgate: gofmt needed:"; echo "$$out"; exit 1; fi

# bench/ is a module of its own (./... cannot reach it), and it calls
# into internal/blockdev, internal/vfs and the root package by name: vet
# it (which also compiles it) so a signature it depends on cannot change
# unnoticed.
vet:
	go vet ./...
	cd bench && go vet .

# Swallowed-device-error gate: demand-path device accesses must never
# discard their error (the pre-fix `_ = f.v.dev.Access(...)` pattern).
errgate:
	@! grep -rn '_ = .*dev\.Access' --include='*.go' . \
		|| (echo 'errgate: swallowed device error (handle or propagate it)'; exit 1)

build:
	go build ./...

test:
	go test ./...

# go test's default timeout is ten minutes per test binary, and on two
# cores internal/experiments alone has taken 531 s, 549.6 s and 472.5 s
# under the race detector: the explicit timeout keeps a slow machine from
# failing a run that no test is at fault for.
race:
	go test -race -timeout 30m ./...

# The allocation guards (every test with "Alloc" in its name: the ring round
# trip, the warm ReadAt, the LSM budgets, the frame table, the predictor
# arms). Most of them skip under `race`, whose sync.Pool drops items on
# purpose, so this run without the detector is the one that gates them.
allocs:
	go test -count=1 -run Alloc ./...

# Flake hunt: `make allocs` in 30 fresh processes, then three runs at
# GOMAXPROCS 1, 2 and 8 of every package that finishes in seconds (all but
# internal/experiments, ≈ 25 s a run). A failing allocs run prints its
# output and stops the hunt.
FLAKE = $(filter-out repro/internal/experiments,$(shell go list ./...))

flake:
	@for i in $$(seq 30); do \
		out=$$($(MAKE) -s allocs 2>&1) || { echo "$$out"; echo "flake: make allocs failed in run $$i of 30"; exit 1; }; \
	done; echo "flake: make allocs passed 30 of 30"
	go test -count=3 -cpu 1,2,8 $(FLAKE)

# The ladder's packages: the five with a host lock of their own, the baton's
# two, and the predictor.
STRESS = ./internal/lsm ./internal/fs ./internal/pagecache \
	./internal/rangetree ./internal/simtime ./internal/workload ./internal/crosslib ./internal/predictor

stress:
	go test -race -timeout 60m -cpu 1,2,8 -count 5 $(or $(PKG),$(STRESS))

# Run every fuzz target, one after another, for FUZZTIME each (default
# 20s): a capped tier's residency invariants, the range tree against a
# plain bitmap, the indexed ledger against a plain rescan of its ring, the
# file store's grouped block map against a flat one, and its synthetic
# filler against the byte-at-a-time reference.
# Not part of `check`: `go test` already runs each target's seed corpus. A
# failing input lands in the package's testdata/fuzz/ and replays from
# there under plain `go test`.
FUZZTIME ?= 20s
FUZZ = internal/blockdev:FuzzTierResidency internal/rangetree:FuzzTreeAgainstBits \
	internal/simtime:FuzzLedgerAgainstScan internal/fs:FuzzInodeAgainstFlatMap \
	internal/fs:FuzzFillSyntheticAt

fuzz:
	@for t in $(FUZZ); do \
		echo "fuzz: $${t#*:} ($(FUZZTIME))"; \
		go test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime $(FUZZTIME) ./$${t%%:*} || exit 1; \
	done

# Code size, counted one way: non-test Go lines that are neither blank nor
# comment-only, per package (with its files when PKG names one, e.g.
# `make size PKG=internal/crosslib`), and a final `total` row. The number a
# size claim in CHANGES.md quotes; not a gate.
size:
	@t=0; for d in $$(find $(or $(PKG),.) -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec dirname {} \; | sort -u); do \
		n=0; for f in $$(ls $$d/*.go | grep -v '_test\.go$$'); do \
			c=$$(grep -vc '^\s*\(//.*\)\?$$' $$f); n=$$((n+c)); \
			[ -z "$(PKG)" ] || printf '%7d  %s\n' $$c $$f; \
		done; printf '%7d  %s\n' $$n $$d; t=$$((t+n)); \
	done; printf '%7d  total\n' $$t

# Fault-plan sweep under the race detector: the chaos harness plus every
# fault-injection, retry/backoff, and circuit-breaker test.
chaos:
	go test -race -run 'Chaos|Fault|Breaker|Retry|Inject|Transient|Poison|Dirty' ./...

# The six sweeps whose full-scale records are pinned in
# testdata/sweeps/<id>.json: serve (sync vs ring frontends across 1/8/64
# tenants), overload (victims vs an antagonist scan under four policy
# cells), score (the scorecards across four access patterns), predict (the
# fixed counter vs the predictor ensemble), tier (the device-stack grid)
# and chaos (retries and the breaker under three fault plans). Every cell byte-verifies its reads, passes the telemetry audit and
# reproduces its digest on a rerun, and each sweep asserts its contract,
# before anything is written (DESIGN §19). Beside them, every experiment's
# table at -quick scale (the paper's tables and figures, and the sweeps at
# their smoke sizes) is pinned as one CSV, testdata/tables/quick.csv
# (about 25 s).
SWEEPS = serve overload score predict tier chaos
RECORDS = testdata/sweeps
TABLES = testdata/tables

# Re-record the sweeps' records and the quick tables in place (or into
# RECORDS=dir and TABLES=dir): one crossbench build, seven runs.
records:
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	go build -o "$$bin/crossbench" ./cmd/crossbench && \
	for s in $(SWEEPS); do "$$bin/crossbench" -exp $$s -json $(RECORDS) || exit 1; done && \
	"$$bin/crossbench" -exp all -quick -csv $(TABLES)/quick.csv >"$$bin/tables.log" \
		|| { cat "$$bin/tables.log"; exit 1; }; \
	echo "wrote $(TABLES)/quick.csv"

# Determinism gate: rerun the six sweeps and the quick tables into a
# temporary directory and compare the files, whole, with the committed
# testdata/sweeps/*.json and testdata/tables/quick.csv (about 35 s in
# total). A byte moves exactly when virtual time, accounting, a scorecard,
# a table row or a record's schema does. Every file is compared before the
# target fails, each file that moved printed with its diff, so that a
# change which re-records one on purpose still shows whether the others
# held; `make records` is the way to re-record them.
digests:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(MAKE) -s RECORDS="$$tmp" TABLES="$$tmp" records >"$$tmp/log" 2>&1 \
		|| { cat "$$tmp/log"; echo 'digests: a run failed'; exit 1; }; \
	moved=; for f in $(SWEEPS:%=$(RECORDS)/%.json) $(TABLES)/quick.csv; do \
		cmp -s $$f "$$tmp/$${f##*/}" && continue; \
		echo "digests: $$f no longer reproduces"; \
		diff $$f "$$tmp/$${f##*/}"; moved="$$moved $${f##*/}"; \
	done; \
	[ -z "$$moved" ] || { echo "digests: moved:$$moved"; exit 1; }; \
	echo "digests: $(RECORDS)/*.json and $(TABLES)/quick.csv reproduce byte for byte"

bench:
	go test -bench=. -benchmem -run=^$$

# Smoke test of the repository's benchmark (bench/, see bench/README.md):
# every workload, both runs, tiny scale, under the race detector (about
# 30 s on two cores). bench/ is a module of its own, so ./... cannot reach
# it; `make check` runs it here, so that a program change which breaks the
# benchmark's own tests fails the gate.
bench-smoke:
	cd bench && go test -race .

# Span-tracing demo: run the fig5 microbenchmark grid with every operation
# traced, write trace.json (load it at ui.perfetto.dev), and print the
# critical-path report for the retained slow spans.
trace:
	go run ./cmd/crossbench -exp fig5 -quick -trace trace.json -trace-report
