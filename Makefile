# Tier-1 gate (see ROADMAP.md): every PR must leave `make check` green —
# vet (root and bench/), four source gates (errgate, fmtgate, stackgate,
# ringgate), build, `go test -race ./...`, the allocation guards without
# the race detector, digests.
# Outside the gate, run before a change to concurrent code: `make stress`
# repeats the six packages with real host concurrency (the LSM engine, the
# file system, the lock-free bitmap, the page cache, the range tree's
# lock-free summaries, the library's shared descriptors and rings), and the
# two that hand threads a baton (simtime's group, the workload driver),
# under the race detector at GOMAXPROCS 1, 2 and 8, five times each — about
# 40 minutes on two cores, 11 of them crosslib's, hence the explicit
# timeout (go test's default is ten).
.PHONY: check build test vet race allocs stress size bench bench-smoke chaos digests errgate fmtgate stackgate ringgate trace bench-serve bench-overload bench-score bench-predict bench-tier

check: vet errgate fmtgate stackgate ringgate build race allocs digests

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

# Stack-API gate: every kernel path addresses device I/O through the
# device stack and, for reads, through its plug (blockdev.StackPlug) —
# never the stack's Access* entry points directly (that is what keeps
# plugged and passthrough modes byte-identical in accounting) and never a
# raw member device (that would skip striping, tier residency and
# per-backend accounting). The gate covers every non-test file of
# internal/vfs, present and future; the one exemption is writeback.go,
# where fsync's blocking lane and the cache's background writeback submit
# writes against the stack by design.
stackgate:
	@! grep -n 'dev\.Access[A-Za-z]*(\|\.Member(' \
		$$(ls internal/vfs/*.go | grep -v '_test\.go$$' | grep -v '/writeback\.go$$') \
		|| (echo 'stackgate: device access outside the plug API, or raw stack-member access, on a kernel path'; exit 1)

# Ring-API gate: the serve frontend must dispatch through the
# submission/completion rings (Prep*/Submit/Reap), never by calling the
# synchronous read/write shims directly. The sync baseline lives in
# serve_baseline.go, which IS the deliberate exemption.
ringgate:
	@! grep -n '\.ReadAt(\|\.WriteAt(' \
		internal/experiments/serve.go cmd/crosserve/main.go \
		|| (echo 'ringgate: direct read/write call on the ring frontend (use the Ring API)'; exit 1)

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The allocation guards (every test with "Alloc" in its name: the ring round
# trip, the warm ReadAt, the LSM budgets, the frame table, the predictor
# arms). Most of them skip under `race`, whose sync.Pool drops items on
# purpose, so this run without the detector is the one that gates them.
allocs:
	go test -count=1 -run Alloc ./...

stress:
	go test -race -timeout 60m -cpu 1,2,8 -count 5 ./internal/lsm ./internal/fs ./internal/bitmap ./internal/pagecache \
		./internal/rangetree ./internal/simtime ./internal/workload ./internal/crosslib

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

# Determinism gate: rerun the five sweeps behind bench-serve, -overload,
# -score, -predict and -tier into a temporary directory and compare the
# files, whole, with the committed BENCH_PR6..10.json (about 10 s in
# total). A byte moves exactly when virtual time, accounting, a scorecard
# or a record's schema does. All five are compared before the target fails,
# each file that moved printed with its diff, so that a change which
# re-records one on purpose still shows whether the others held; the
# bench-* targets below, which overwrite those files in place, are the way
# to re-record one.
digests:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(MAKE) -s BENCH_OUT="$$tmp/" bench-serve bench-overload bench-score bench-predict bench-tier >"$$tmp/log" 2>&1 \
		|| { cat "$$tmp/log"; echo 'digests: a sweep failed'; exit 1; }; \
	moved=; for n in 6 7 8 9 10; do \
		cmp -s BENCH_PR$$n.json "$$tmp/BENCH_PR$$n.json" && continue; \
		echo "digests: BENCH_PR$$n.json no longer reproduces"; \
		diff BENCH_PR$$n.json "$$tmp/BENCH_PR$$n.json"; moved="$$moved BENCH_PR$$n.json"; \
	done; \
	[ -z "$$moved" ] || { echo "digests: moved:$$moved"; exit 1; }; \
	echo "digests: BENCH_PR6..10.json reproduce byte for byte"

bench:
	go test -bench=. -benchmem -run=^$$

# Smoke test of the repository's benchmark (bench/, see bench/README.md):
# every workload, both runs, tiny scale, under the race detector. bench/ is
# a module of its own, so `make check` (./...) cannot reach it.
bench-smoke:
	cd bench && go test -race .

# Span-tracing demo: run the fig5 microbenchmark grid with every operation
# traced, write trace.json (load it at ui.perfetto.dev), and print the
# critical-path report for the retained slow spans.
trace:
	go run ./cmd/crossbench -exp fig5 -quick -trace trace.json -trace-report

# Serve-frontend sweep: the sync and ring dispatch paths across 1/8/64
# tenants at identical replay schedules — achieved dispatch depth,
# kernel crossings per op, and tail latency per cell. Every cell passes
# the cross-layer telemetry audit, is re-run and digest-compared for
# determinism, and at each tenant count the rings must match sync's client
# bytes at no more than half its crossings per op and a dispatch depth of
# at least 2.
bench-serve:
	go run ./cmd/crosserve -sweep -json $(BENCH_OUT)BENCH_PR6.json

# Overload-resilience sweep: zipfian victims vs a full-file-scan
# antagonist across the five policy cells (isolated / no-budget / budget
# / budget+brownout / budget+deadline). Every cell byte-verifies, passes
# the telemetry audit including the exact per-tenant residency partition,
# is re-run and digest-compared for determinism, and the budgeted cells
# must hold victim p99 within 2x the isolated baseline.
bench-overload:
	go run ./cmd/crosserve -mode overload -tenants 4 -ops 200 -file-mb 16 \
		-sweep -json $(BENCH_OUT)BENCH_PR7.json

# Scorecard sweep: one cell per access pattern (sequential / strided /
# zipfian / shared-file), each run twice with byte-identical scorecard
# JSON enforced, the scorecard<->recorder per-origin partition audited,
# and the sequential-vs-zipfian accuracy discrimination asserted.
bench-score:
	go run ./cmd/crosserve -mode score -file-mb 64 -iosize 65536 -ops 512 \
		-sessions 4 -json $(BENCH_OUT)BENCH_PR8.json

# Predictor-ensemble sweep: sequential / zipfian-LSM / interleaved-shared,
# each replayed through the fixed sequentiality counter and the competing
#-arm ensemble. Every cell is byte-verified, audit-reconciled (per-arm
# issued/used/wasted partitions the ring-prefetch origin exactly), re-run
# with digest comparison for determinism, and the ensemble contract is
# asserted: beat the counter on zipfian-LSM warm hit rate AND pages/s,
# concede at most 2% on pure sequential.
bench-predict:
	go run ./cmd/crosserve -mode predict -file-mb 16 -iosize 16384 -ops 2048 \
		-json $(BENCH_OUT)BENCH_PR9.json

# Tiered-stack sweep: the device-stack grid (RAID-0 width 1/2, half-remote
# NVMe-oF tier, cross-tier prefetch on/off, capped local tier) under
# sequential / zipfian-LSM / shared-file access. Every cell is
# byte-verified, audit-reconciled down to the exact per-backend
# command/byte partition, re-run with digest comparison for determinism,
# and the contracts are asserted: width-2 sequential throughput >= 1.7x
# width-1, cross-tier prefetch holds >= 70% of the all-local warm hit
# rate on the half-remote dataset, and tiered-with-prefetch beats
# prefetch-off tiered on warm p99 read latency.
bench-tier:
	go run ./cmd/crosserve -mode tier -file-mb 16 -iosize 16384 -ops 2048 \
		-json $(BENCH_OUT)BENCH_PR10.json
