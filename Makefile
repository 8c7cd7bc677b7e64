# Verification entry points.
#
# `make verify` is the tier-1 gate plus the concurrency checks that came
# with the parallel experiment engine (go vet + race detector in short
# mode), the static analyzers (wbsimlint always; staticcheck/govulncheck
# when installed at their pinned versions), and a small chaos campaign
# (fault plans × litmus suite × seeds) from the fault-injection
# subsystem.

GO ?= go

.PHONY: verify build test vet lint wbsimlint spec-lint race bench chaos-short chaos \
	alloc-gate golden-short golden-full profile bench-kernel bench-dir bench-pair \
	perfbench-smoke coverage-report check-liveness check-liveness-deep \
	print-staticcheck-version print-govulncheck-version

verify: build vet lint spec-lint test race alloc-gate golden-short chaos-short check-liveness

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Pinned versions of the external analyzers, so CI runs are
# reproducible instead of tracking whatever happens to be on PATH.
# The offline build environment does not ship them and nothing may be
# installed there, so by default a missing tool is a loud warning; CI
# sets WBSIM_LINT_STRICT=1, which turns a missing or mismatched tool
# into a failure. wbsimlint (the project's own analyzer suite,
# cmd/wbsimlint) builds from this repo and is always a hard gate.
STATICCHECK_VERSION ?= 2024.1.1
# Module tag corresponding to the staticcheck release above, for
# `go install honnef.co/go/tools/cmd/staticcheck@...` in CI.
STATICCHECK_MODULE_VERSION ?= v0.5.1
GOVULNCHECK_VERSION ?= v1.1.3
WBSIM_LINT_STRICT ?=

# Single source of truth for the pins; CI shells these out.
print-staticcheck-version:
	@echo $(STATICCHECK_MODULE_VERSION)
print-govulncheck-version:
	@echo $(GOVULNCHECK_VERSION)

lint: wbsimlint
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./... (want $(STATICCHECK_VERSION))"; \
		staticcheck -version 2>/dev/null | grep -q '$(STATICCHECK_VERSION)' || \
			{ echo "lint: staticcheck is not $(STATICCHECK_VERSION)"; \
			  [ -z "$(WBSIM_LINT_STRICT)" ] || exit 1; }; \
		staticcheck ./...; \
	elif [ -n "$(WBSIM_LINT_STRICT)" ]; then \
		echo "lint: staticcheck $(STATICCHECK_VERSION) required (WBSIM_LINT_STRICT)"; exit 1; \
	else echo "lint: staticcheck not installed, skipping (offline build)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo govulncheck ./...; govulncheck ./...; \
	elif [ -n "$(WBSIM_LINT_STRICT)" ]; then \
		echo "lint: govulncheck $(GOVULNCHECK_VERSION) required (WBSIM_LINT_STRICT)"; exit 1; \
	else echo "lint: govulncheck not installed, skipping (offline build)"; fi

# The project's own static invariants (DESIGN.md, "Static invariants"):
# determinism, protocol exhaustiveness, panic containment, stats
# discipline. Always a hard gate; no network or external tool needed.
wbsimlint:
	$(GO) run ./cmd/wbsimlint ./...

# Protocol-level static analysis (DESIGN.md, "Static invariants"):
# wbsimspec runs the speclint passes — effects-annotation hygiene, VNet
# deadlock-freedom over the message dependency graph, livelock cycles,
# dead rows — across the four shipping table compositions. Like
# wbsimlint it builds from this repo and is always a hard gate.
spec-lint:
	$(GO) run ./cmd/wbsimspec

test:
	$(GO) test ./...

# The engine, experiment, litmus, and model-checker packages run real
# concurrency; keep them clean under the race detector. Short mode skips
# the big experiment matrices but still exercises the pool, memo cache,
# parallel litmus, and the checker's parallel frontier (the one place
# mem.Memory values cross goroutines).
race:
	$(GO) test -race -short ./internal/runner ./internal/experiments ./internal/litmus ./internal/coherence/check

# Small chaos campaign: every catalog fault plan over the full litmus
# suite on the WritersBlock and tardis variants (base is the golden
# suite's job). Zero violations, zero hangs, zero panics or the exit
# status is non-zero.
chaos-short:
	$(GO) run ./cmd/litmus -chaos -seeds 4 -variants inorder-wb,ooo-wb,inorder-tardis,ooo-tardis

# Full campaign: all plans × all sound variants × more seeds.
chaos:
	$(GO) run ./cmd/litmus -chaos -seeds 12

# Chaos campaign with the transition-coverage report: which (state,
# event) rows of the coherence tables did the matrix (random litmus
# programs + the directed protocol stimulator) exercise?
coverage-report:
	$(GO) run ./cmd/litmus -chaos -seeds 12 -coverage

# Liveness gate: the model checker (cmd/wbsimcheck) over the shipping
# coherence tables. Three exhaustive proofs — 2-core/1-line contention
# in every registered core mode (the lockdown run covers the full
# Nack/DelayedAck/WritersBlock row family, the tardis run the
# lease/timestamp family) — plus a bounded 3-core/2-bank sweep: the
# capped run cannot rule out livelocks, but any safety violation or
# hard deadlock within its 50k-state radius fails the gate.
check-liveness:
	$(GO) run ./cmd/wbsimcheck -cores 2 -banks 1 -lines 1 -ops 2
	$(GO) run ./cmd/wbsimcheck -cores 2 -banks 1 -lines 1 -ops 2 -mode lockdown -lockdowns 1
	$(GO) run ./cmd/wbsimcheck -cores 2 -banks 1 -lines 1 -ops 2 -mode tardis
	$(GO) run ./cmd/wbsimcheck -cores 3 -banks 2 -lines 2 -ops 2 -max-states 50000

# Nightly liveness sweep. The two-core/two-line space runs exhaustively
# both raw (~18k states) and symmetry-reduced, and the raw/reduced pair
# cross-checks the reduction on every nightly: both must pass with the
# same verdict. Symmetry reduction closes the three-core/2-bank/
# 2-line squash space exhaustively (2.7M canonical states; 43 s and a
# 3.2GB RSS peak at two workers on a 2-vCPU host, DESIGN.md §10), so it
# runs uncapped. Lockdown at that geometry does NOT close:
# at depth 38 it already held 2.1M canonical states with the frontier
# still growing ~26% per layer (projected >=50M states, beyond any
# budget), so it runs at a 500k-state cap — 10x the tier-1 radius; any
# safety violation or hard deadlock inside that radius fails the gate.
check-liveness-deep: check-liveness
	$(GO) run ./cmd/wbsimcheck -cores 2 -banks 1 -lines 2 -ops 2
	$(GO) run ./cmd/wbsimcheck -cores 2 -banks 1 -lines 2 -ops 2 -reduce sym
	$(GO) run ./cmd/wbsimcheck -cores 2 -banks 1 -lines 2 -ops 2 -mode tardis -reduce sym
	$(GO) run ./cmd/wbsimcheck -cores 3 -banks 2 -lines 2 -ops 2 -reduce sym -progress
	$(GO) run ./cmd/wbsimcheck -cores 3 -banks 2 -lines 2 -ops 2 -mode lockdown -lockdowns 1 -reduce sym -max-states 500000
	$(GO) run ./cmd/wbsimcheck -cores 3 -banks 2 -lines 2 -ops 2 -mode tardis -reduce sym -max-states 500000

# Zero-allocation gates for the event-driven kernel: a warmed-up mesh
# cycle, a drained System.Step, a busy core's System.Step and two cores
# ping-ponging shared lines may not allocate (see DESIGN.md, "Simulation
# kernel & performance model"); nor may a warm component event queue, a
# warm typed MSHR file, the model checker's copy-on-write child once its
# pool is warm, nor a rewrite of a materialized memory line, nor a warm
# core's load-ordering state. A new cache array may allocate only its set
# index (TestNewArrayAllocBudget).
alloc-gate:
	$(GO) test -count=1 -run 'ZeroAlloc|NewArrayAllocBudget' ./internal/sim ./internal/mem ./internal/cache ./internal/network ./internal/core ./internal/coherence ./internal/ordering

# Determinism goldens: tool stdout must be byte-identical to the
# pre-kernel-change captures in testdata/. golden-short runs the fast
# ones (litmus suite, chaos campaign, tsosim); golden-full adds the
# complete evaluation (fig8/9/10 + squash + ablations, ~1.5 min).
golden-short:
	$(GO) test -count=1 -run 'TestGoldenOutputs' .

golden-full:
	WBSIM_GOLDEN_FULL=1 $(GO) test -count=1 -timeout 30m -run 'TestGoldenOutputs' .

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x

# Directory/PCU dispatch microbenchmarks: the table-driven coherence
# engine's hot path (write invalidations, 3-hop reads, and the
# WritersBlock choreography of Figure 3.B/4).
bench-dir:
	$(GO) test -count=5 -run '^$$' -bench 'DirDispatch' -benchtime 200x -benchmem ./internal/coherence

# Kernel microbenchmarks: cycles/sec and allocs/op for the scheduler's
# inner loop and the mesh (loaded and quiescent), the cache array's tag
# match, building the 16-core machine (B/op and allocs/op of its
# set-up), plus a short end-to-end throughput smoke (3 iterations;
# sim-cycles/sec is the headline metric).
bench-kernel:
	$(GO) test -count=1 -run '^$$' -bench 'SystemStep' -benchtime 50000x -benchmem ./internal/core
	$(GO) test -count=1 -run '^$$' -bench 'NewSystem' -benchtime 200x -benchmem ./internal/core
	$(GO) test -count=1 -run '^$$' -bench 'ArrayLookup' -benchtime 2000000x -benchmem ./internal/cache
	$(GO) test -count=1 -run '^$$' -bench 'MeshTick' -benchtime 200000x -benchmem ./internal/network
	$(GO) test -count=1 -run '^$$' -bench 'SimulatorThroughput$$' -benchtime 3x -benchmem .

# Benchmark smoke: perfbench is a module of its own (perfbench/go.mod),
# so `go build ./...` and `go test ./...` never compile it and an API
# change under internal/ could break it unnoticed. Vet and test it, then
# run the sim workload for two seconds and the sweep and check workloads
# for one each. Every sim operation must reproduce the cycle-accurate
# 16-core reference, so that run also checks the kernel's idle skip;
# every sweep operation (Figure 9 on the 4-core machine, the one judged
# workload that runs in-order commit) must match a two-worker run of the
# experiment engine, so that run also checks the engine's determinism;
# every check operation must close the 2c/1b/2l space at exactly 18111
# states, 85402 transitions and depth 51, so that run also checks the
# checker's fingerprints and store. The target fails unless each result
# line reports a correct run with no failed operation.
perfbench-smoke:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	@for run in sim:2 sweep:1 check:1; do \
		out=$$(python3 perfbench/run.py --workload $${run%:*} --seed 1 --seconds $${run#*:} --trace 0) || exit 1; \
		echo "$$out"; \
		case "$$out" in *'"correct":true'*'"failed":0,'*) ;; \
		*) echo "perfbench-smoke: the $${run%:*} run is not correct or has failed operations"; exit 1;; esac; \
	done

# Paired timing comparison of the working tree against commit REV, run
# in a detached worktree of REV that is removed on exit. Each tree builds
# and runs its own perfbench/run.py: 10 pairs of the sim, sweep and check
# workloads, seeded with the pair number, REV first in odd pairs. Every
# result line is printed tagged `parent` or `change` and its pair number;
# compare the medians of the pairs. Timing is host-bound, so nothing
# here passes or fails on it (exact bounds live in `go test ./...`).
bench-pair:
	@[ -n "$(REV)" ] || { echo "usage: make bench-pair REV=<commit>"; exit 2; }
	@wt=$$(mktemp -d) || exit 1; trap 'rm -rf "$$wt"; git worktree prune' EXIT; \
	trap 'exit 130' INT TERM; \
	git worktree add -q --detach "$$wt" "$(REV)" || exit 1; \
	for p in 1 2 3 4 5 6 7 8 9 10; do \
		order="parent change"; [ $$((p % 2)) -eq 1 ] || order="change parent"; \
		for w in sim sweep check; do for tree in $$order; do \
			dir=.; [ $$tree = change ] || dir=$$wt; \
			out=$$(cd "$$dir" && python3 perfbench/run.py --workload $$w \
				--seed $$p --seconds 10 --trace 0) || exit 1; \
			echo "$$tree $$p $$out"; \
		done; done; \
	done

# CPU+heap profile of a representative run (fft + lu_cb, 4 cores), then
# the top-10 consumers of each. Profiles land in ./cpu.pprof, ./mem.pprof.
profile:
	$(GO) build -o /tmp/wbsim-profile-tsosim ./cmd/tsosim
	/tmp/wbsim-profile-tsosim -workload fft,lu_cb -cores 4 -scale 1 \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount=10 /tmp/wbsim-profile-tsosim cpu.pprof
	$(GO) tool pprof -top -nodecount=10 -sample_index=alloc_space /tmp/wbsim-profile-tsosim mem.pprof
