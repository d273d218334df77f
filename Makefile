GO ?= go

.PHONY: ci fmt fmt-fix vet build test race bench bench-smoke benchmark-module \
	loadgen-smoke docs-check fuzz-smoke deviation-matrix deviation-matrix-short \
	cover-gate crash-smoke ws-smoke chaos-smoke batch-smoke dist-smoke obs-smoke \
	layer-check clean

ci: fmt vet build layer-check test race bench-smoke benchmark-module loadgen-smoke crash-smoke \
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

# benchmark/ is a module of its own, so the root go test ./... never builds
# it: vet and test it here so an API change cannot break `make bench`
# unnoticed.
benchmark-module:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

# The one measurement entry point: every workload BENCHMARK.json declares,
# run once through benchmark/run.sh (seed 1, 20 s, tracing off). Each run
# checks its own correctness and prints the end-to-end metrics as its last
# JSON line; benchmark/WORKLOADS.md says how to read them and how to
# compare two commits (repeated paired runs, never one).
bench:
	@set -e; for w in $$(sed -n '/"workloads"/,/]/s/^ *"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json); do \
		echo "bench: $$w"; bash benchmark/run.sh --workload $$w --seed 1 --seconds 20 --trace 0; \
	done

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

# CI-sized chaos smoke: one run at a 5% disk + 5% net fault rate; fails
# on any verdict loss, digest mismatch, or unhealed connection, never on
# timing.
chaos-smoke:
	$(GO) run ./cmd/loadgen -sessions 24 -plays 6 -conns 4 -seed 1 -chaos-disk 0.05 -chaos-net 0.05 > /dev/null
	$(GO) run ./cmd/loadgen -sessions 24 -plays 6 -conns 4 -seed 1 -chaos-disk 0.2 -chaos-net 0 -batch 3 > /dev/null

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
# DESIGN.md §1), and every `make <target>` that README.md, DESIGN.md, the
# verify skill or the CI workflow names (in backticks, in parentheses, or
# as a run: step) must be a target this Makefile defines. CI fails on
# either.
docs-check:
	@missing=0; for d in internal/*/; do \
		grep -q '^// Package ' $$d*.go || { echo "docs-check: $$d lacks a package comment"; missing=1; }; \
	done; \
	defined=$$(sed -n 's/^\([a-z][a-z0-9-]*\):.*/\1/p' Makefile); \
	for f in README.md DESIGN.md .claude/skills/verify/SKILL.md .github/workflows/ci.yml; do \
		for t in $$(grep -oE '(`|\(|run: )make [a-z][a-z0-9-]*' $$f | sed 's/.*make //' | sort -u); do \
			echo "$$defined" | grep -qx "$$t" || { echo "docs-check: $$f names make $$t, which the Makefile does not define"; missing=1; }; \
		done; \
	done; \
	if [ $$missing -ne 0 ]; then exit 1; fi; \
	echo "docs-check: every internal package carries a package comment; every documented make target exists"
