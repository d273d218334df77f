GO ?= go

.PHONY: ci fmt fmt-fix vet build test race bench bench-smoke \
	loadgen loadgen-chaos loadgen-smoke docs-check fuzz-smoke \
	deviation-matrix deviation-matrix-short cover-gate \
	crash-bench crash-smoke ws-smoke loadgen-ws chaos-bench chaos-smoke \
	batch-bench batch-smoke dist-bench dist-smoke obs-bench obs-smoke layer-check clean

ci: fmt vet build layer-check test race bench-smoke loadgen-smoke crash-smoke \
	ws-smoke chaos-smoke batch-smoke dist-smoke obs-smoke docs-check fuzz-smoke deviation-matrix-short cover-gate

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

fmt-fix:
	gofmt -w .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Package layering, checked on the transitive import graph (go list
# -deps): the authority core stays below the hosting layers (store, hub,
# wire, faults, metrics) and the deviation catalog that plugs into it;
# the obs, prng and punish leaves import nothing from this module; and
# Byzantine agreement (bap) stays below the core it serves.
CORE_FORBIDDEN = store|hub|wire|faults|metrics|deviate
layer-check:
	@fail=0; \
	bad=$$($(GO) list -deps ./internal/core | grep -E '^gameauthority/internal/($(CORE_FORBIDDEN))$$'); \
	if [ -n "$$bad" ]; then echo "layer-check: internal/core imports" $$bad; fail=1; fi; \
	for p in obs prng punish; do \
		bad=$$($(GO) list -deps ./internal/$$p | grep '^gameauthority' | grep -vx "gameauthority/internal/$$p"); \
		if [ -n "$$bad" ]; then echo "layer-check: internal/$$p imports" $$bad; fail=1; fi; \
	done; \
	bad=$$($(GO) list -deps ./internal/bap | grep -x 'gameauthority/internal/core'); \
	if [ -n "$$bad" ]; then echo "layer-check: internal/bap imports" $$bad; fail=1; fi; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "layer-check: package layering holds"

# One iteration per benchmark: a bit-rot smoke, not a measurement. CI runs
# this — it fails on build/bench errors, never on timing noise.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# The tracked baseline: per-driver play benchmarks with -benchmem, parsed
# into BENCH_PR2.json (ns/play, B/play, allocs/play per driver). Commit the
# artifact so future PRs have a trajectory to beat.
bench:
	$(GO) test -run '^$$' -bench '^BenchmarkPlay' -benchmem -benchtime 2000x -count 1 . \
		| $(GO) run ./cmd/benchfmt -out BENCH_PR2.json

# The many-session load harness: 1000 concurrent sessions across the full
# scenario mix and all four drivers, both in-process and (selfserve) over
# HTTP; the in-process run is the tracked BENCH_PR3.json artifact. See
# DESIGN.md §7 for how to read it.
loadgen:
	( $(GO) run ./cmd/loadgen -sessions 1000 -plays 20; \
	  $(GO) run ./cmd/loadgen -sessions 200 -plays 8 -obs ) \
		| $(GO) run ./cmd/benchfmt -command "make loadgen" -out BENCH_PR3.json

# The chaos run: the same 1000 sessions with 20% deviant sessions
# (strategies rotating through the deviation catalog) and wire-level
# adversaries on distributed sessions; the artifact tracks throughput
# under attack plus detection/conviction rates. See DESIGN.md §8.
loadgen-chaos:
	$(GO) run ./cmd/loadgen -sessions 1000 -plays 20 -deviants 0.2 -chaos \
		| $(GO) run ./cmd/benchfmt -command "make loadgen-chaos" -out BENCH_PR4.json

# CI-sized loadgen: exercises every scenario, every driver, and both
# transports; fails on harness errors, never on timing.
loadgen-smoke:
	$(GO) run ./cmd/loadgen -sessions 64 -plays 4 > /dev/null
	$(GO) run ./cmd/loadgen -selfserve -sessions 16 -plays 2 > /dev/null
	$(GO) run ./cmd/loadgen -sessions 64 -plays 4 -deviants 0.25 -chaos > /dev/null

# CI-sized streaming smoke: the full scenario mix over the /ws binary
# transport, many sessions multiplexed onto four connections; fails on
# any transport error, never on timing.
ws-smoke:
	$(GO) run ./cmd/loadgen -transport ws -selfserve -sessions 64 -plays 4 -conns 4 > /dev/null

# The streaming-scale run (DESIGN.md §10): 100k concurrent sessions
# multiplexed over 64 WebSocket connections into a sharded authority; the
# tracked BENCH_PR6.json artifact records the WS-vs-HTTP throughput and
# latency split.
loadgen-ws:
	$(GO) run ./cmd/loadgen -transport ws -selfserve -sessions 100000 -plays 4 -conns 64 \
		| $(GO) run ./cmd/benchfmt -command "make loadgen-ws" -out BENCH_PR6.json

# The fault-injection acceptance harness (DESIGN.md §11): deterministic
# disk and network chaos around the streaming transport, with self-healing
# clients. Each run asserts zero verdict loss and digest-identical final
# state against a fault-free twin; the tracked BENCH_PR7.json artifact
# records throughput and healing counters at 0%, 5%, and 20% fault rates.
chaos-bench:
	( $(GO) run ./cmd/loadgen -sessions 48 -plays 8 -conns 4 -seed 1 -chaos-disk 0 -chaos-net 0; \
	  $(GO) run ./cmd/loadgen -sessions 48 -plays 8 -conns 4 -seed 1 -chaos-disk 0.05 -chaos-net 0.05; \
	  $(GO) run ./cmd/loadgen -sessions 48 -plays 8 -conns 4 -seed 1 -chaos-disk 0.2 -chaos-net 0.2 ) \
		| $(GO) run ./cmd/benchfmt -command "make chaos-bench" -out BENCH_PR7.json

# CI-sized chaos smoke: one run at a 5% disk + 5% net fault rate; fails
# on any verdict loss, digest mismatch, or unhealed connection, never on
# timing.
chaos-smoke:
	$(GO) run ./cmd/loadgen -sessions 24 -plays 6 -conns 4 -seed 1 -chaos-disk 0.05 -chaos-net 0.05 > /dev/null
	$(GO) run ./cmd/loadgen -sessions 24 -plays 6 -conns 4 -seed 1 -chaos-disk 0.2 -chaos-net 0 -batch 3 > /dev/null

# The durability-tax benchmark (DESIGN.md §12): the same 300-session
# scenario mix volatile, durable with batched plays + WAL group commit at
# an equal shape, and durable through a crash/recover cycle. The tracked
# BENCH_PR8.json artifact asserts the headline: durable batched throughput
# stays within 2x of the volatile baseline.
batch-bench:
	@dir=$$(mktemp -d); \
	( $(GO) run ./cmd/loadgen -sessions 300 -plays 24 -seed 1; \
	  $(GO) run ./cmd/loadgen -sessions 300 -plays 24 -batch 24 -data-dir $$dir -seed 1; \
	  $(GO) run ./cmd/loadgen -sessions 300 -plays 12 -batch 6 -crash 1 -seed 1 ) \
		| $(GO) run ./cmd/benchfmt -command "make batch-bench" -out BENCH_PR8.json; \
	status=$$?; rm -rf $$dir; exit $$status

# CI-sized batch smoke: the PlayN equivalence battery (every catalog game
# x four drivers x Mem/File stores), crash-mid-batch recovery, the fsync
# regression gate, and a batched durable loadgen run crossing one
# crash/recover cycle. Fails on any divergence, never on timing.
batch-smoke:
	$(GO) test -run 'TestPlayNEquivalence|TestCrashBetweenCommitEpochs|TestCrashInsideBatchAppend|TestBatchAppendFaults|TestGroupCommitFsyncGate' .
	$(GO) test -run 'TestBatchRecordRoundTrip|TestFileTornBatchTail|TestGroupCommitEpochs|TestGroupCommitCloseReleasesParked' ./internal/store
	$(GO) run ./cmd/loadgen -sessions 32 -plays 8 -batch 4 -crash 1 > /dev/null

# The distributed-only scenario mix: the Byzantine families (fork-choice
# mining, committee attestation) plus the public-goods baseline on the
# replicated driver, everything else zeroed out.
DIST_MIX = congestion=0,braess=0,coordination-n=0,publicgoods-punish=0,minority=0,firstprice=0,secondprice=0,pd=0,mixed-pennies=0,rra=0,dist-publicgoods=1,dist-mining=1,dist-committee=1

# CI-sized distributed smoke (DESIGN.md §13): the hard per-pulse allocation
# gates (a warm interactive-consistency phase must not allocate; the
# distributed play budget is pinned at measured+10%), cross-driver
# determinism, and short Byzantine scenario rows through both pulse
# engines. Fails on allocation or agreement regressions, never on timing.
dist-smoke:
	$(GO) test -run 'TestICEngine|TestDolevStrong' ./internal/bap
	$(GO) test -run 'TestAllocsPerPlayDistributed|TestCrossDriverDeterminism' .
	$(GO) run ./cmd/loadgen -sessions 12 -plays 8 -seed 1 -mix "$(DIST_MIX)" > /dev/null
	$(GO) run ./cmd/loadgen -sessions 12 -plays 8 -seed 1 -pulse-workers 2 -mix "$(DIST_MIX)" > /dev/null

# The distributed-pulse benchmark (DESIGN.md §13): the Byzantine scenario
# rows at an equal shape on the lockstep engine and on the worker-pool
# engine under GOMAXPROCS=4. The tracked BENCH_PR9.json artifact keeps the
# single- and multi-core rows distinct via the /pulse-workers label; on a
# single-hardware-core host the worker-pool row measures its scheduling
# overhead honestly rather than a speedup.
dist-bench:
	( $(GO) run ./cmd/loadgen -sessions 24 -plays 16 -seed 1 -mix "$(DIST_MIX)"; \
	  GOMAXPROCS=4 $(GO) run ./cmd/loadgen -sessions 24 -plays 16 -seed 1 -pulse-workers 4 -mix "$(DIST_MIX)" ) \
		| $(GO) run ./cmd/benchfmt -command "make dist-bench" -out BENCH_PR9.json

# The observability-overhead benchmark (DESIGN.md §14): the dist-bench
# Byzantine rows re-run with the full metrics plane compiled in and
# tracing disabled, plus an /obs row carrying the server-side histogram
# percentiles next to the client-side numbers. The tracked
# BENCH_PR10.json artifact is read against BENCH_PR9.json: equal-shape
# rows must stay within 5% plays/s.
obs-bench:
	( $(GO) run ./cmd/loadgen -sessions 24 -plays 16 -seed 1 -mix "$(DIST_MIX)"; \
	  $(GO) run ./cmd/loadgen -sessions 24 -plays 16 -seed 1 -obs -mix "$(DIST_MIX)" ) \
		| $(GO) run ./cmd/benchfmt -command "make obs-bench" -out BENCH_PR10.json

# CI-sized observability smoke (DESIGN.md §14): obssmoke scrapes
# /metrics under real load and asserts every histogram and gauge family
# renders, parses, and is internally consistent, then captures one
# distributed-play trace and validates its per-pulse spans; metriclint
# enforces the gameauthority_ prefix and the _total/_seconds suffix
# conventions on every declared family. Fails on violations, never on
# timing.
obs-smoke:
	$(GO) run ./cmd/obssmoke
	$(GO) run ./cmd/metriclint

# The crash/recovery harness (DESIGN.md §9): a durable loadgen run that
# SIGKILL-drops the authority mid-run and recovers every session from the
# write-ahead log, twice. The artifact tracks durable throughput plus the
# recovered-session count and replay lag per cycle.
crash-bench:
	$(GO) run ./cmd/loadgen -sessions 300 -plays 12 -crash 2 \
		| $(GO) run ./cmd/benchfmt -command "make crash-bench" -out BENCH_PR5.json

# CI-sized crash smoke: every scenario family and driver crosses one
# crash/recover cycle; fails on any lost or diverging session, never on
# timing.
crash-smoke:
	$(GO) run ./cmd/loadgen -sessions 48 -plays 4 -crash 1 > /dev/null

# The deviation-profit verification matrix (DESIGN.md §8): every catalog
# game × driver × punishment scheme × selfish strategy, with the profit
# auditor asserting that punished deviation never nets positive utility.
# The short variant runs the same cells at reduced rounds/seeds on every
# push.
deviation-matrix:
	$(GO) test -run TestDeviationMatrix -v .

deviation-matrix-short:
	$(GO) test -run TestDeviationMatrix -short .

# Fuzz smoke: replay the checked-in seed corpora, then give each HTTP,
# wire and EIG-absorb fuzz target a short live burst. Fails on
# panics/regressions, never on not finding anything new.
fuzz-smoke:
	$(GO) test -run '^Fuzz' .
	$(GO) test -run '^Fuzz' ./internal/wire ./internal/bap
	$(GO) test -fuzz '^FuzzServerSessions$$' -fuzztime 5s -run '^Fuzz' .
	$(GO) test -fuzz '^FuzzServerPlay$$' -fuzztime 5s -run '^Fuzz' .
	$(GO) test -fuzz '^FuzzWireDecode$$' -fuzztime 5s -run '^Fuzz' ./internal/wire
	$(GO) test -fuzz '^FuzzEIGAbsorb$$' -fuzztime 5s -run '^Fuzz' ./internal/bap

# Coverage gate: the audited packages must keep ≥ 70% of statements
# covered by the whole suite (merged -coverpkg profile; see
# cmd/covergate). The profile lives in a temp file so repeated local runs
# leave no cover.out litter in the work tree.
COVER_PKGS = ./internal/core,./internal/punish,./internal/audit,./internal/deviate,./internal/store,./internal/wire,./internal/hub,./internal/faults,./internal/sim,./internal/bap,./internal/obs
cover-gate:
	@profile=$$(mktemp); \
	$(GO) test -short -coverprofile=$$profile -coverpkg=$(COVER_PKGS) ./... > /dev/null && \
	$(GO) run ./cmd/covergate -profile $$profile -min 70 \
		gameauthority/internal/core gameauthority/internal/punish \
		gameauthority/internal/audit gameauthority/internal/deviate \
		gameauthority/internal/store gameauthority/internal/wire \
		gameauthority/internal/hub gameauthority/internal/faults \
		gameauthority/internal/sim gameauthority/internal/bap \
		gameauthority/internal/obs; \
	status=$$?; rm -f $$profile; exit $$status

# Remove generated local artifacts (coverage profiles, build cache junk).
clean:
	rm -f cover.out
	$(GO) clean ./...

# Every internal package must carry a package comment (the godoc story of
# DESIGN.md §1); CI fails when one goes missing.
docs-check:
	@missing=0; for d in internal/*/; do \
		grep -q '^// Package ' $$d*.go || { echo "docs-check: $$d lacks a package comment"; missing=1; }; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo "docs-check: every internal package carries a package comment"
