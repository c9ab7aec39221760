GO ?= go

.PHONY: build vet lint test race check loc loc-check updatecheck fixtures-check bench-check bench-host bench bench-vm bench-codec bench-tables bench-json bench-obs bench-quick fuzz-smoke fleet-smoke registry-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own analyzers (internal/analysis, docs/analysis.md)
# over every package, commands and tests included. The repo must stay
# clean under its own rules; suppress case by case with //lint:ignore.
lint:
	$(GO) run ./cmd/dapperlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# updatecheck runs the static cross-version verifier's two whole-repo
# properties: every workload binary on both ISAs must pass the stack-map
# soundness pass, and an identical recompile must classify every function
# safe (see docs/updatecheck.md). The deliberately-broken-binary corpus is
# covered by the rest of `go test ./internal/updatecheck/`.
updatecheck:
	$(GO) test -run '^(TestWorkloadSoundness|TestRecompileDiffSafe)$$' ./internal/updatecheck

# fixtures-check regenerates both committed fixture corpora, the broken
# DELF binaries of internal/updatecheck/testdata and the invalid image sets
# of internal/imgcheck/testdata, into a temporary directory with their
# gen_fixtures.go, and fails if a file differs from, or is missing from,
# the committed ones. Nothing else builds a //go:build ignore generator,
# and the DELF corpus is the encoder's oracle on freshly compiled binaries.
fixtures-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for c in updatecheck imgcheck; do \
		mkdir "$$tmp/$$c" && $(GO) run ./internal/$$c/testdata/gen_fixtures.go "$$tmp/$$c" >/dev/null && \
		diff -r -x gen_fixtures.go internal/$$c/testdata "$$tmp/$$c" || exit 1; \
	done && echo "fixtures-check: both corpora regenerate byte for byte"

# bench-check compiles, vets and tests the host-time benchmark. bench/ is
# a Go module of its own (bench/README.md), so `go build|vet|test ./...`
# never see it: without this target an API removal under internal/ breaks
# the benchmark silently.
bench-check:
	$(GO) vet -C bench ./... && $(GO) test -C bench ./...

# bench-host runs the host-time migration benchmark (BENCHMARK.json,
# bench/README.md) for 8 s per workload and keeps each workload's
# contract line — the five end-to-end metrics, ops attempted and failed —
# as BENCH_host.json, keyed by workload. It gates nothing: the timings
# are the machine's, and a claim needs paired runs against the parent
# (docs/perf.md, "Copy budget"). The committed file additionally carries
# the paired runs it was last measured with, under "paired_runs".
bench-host:
	@sep='{'; for w in kv_vanilla kv_precopy kv_lazy mt_shuffle; do \
		out=$$(bash bench/run.sh --workload $$w --seconds 8) || exit 1; \
		printf '%s\n  "%s": %s' "$$sep" "$$w" "$$(printf '%s\n' "$$out" | tail -n 1)"; sep=','; \
	done > BENCH_host.json.tmp && printf '\n}\n' >> BENCH_host.json.tmp && mv BENCH_host.json.tmp BENCH_host.json
	@cat BENCH_host.json

# loc prints the two line counts every PR of this round quotes
# (ROADMAP.md, aim 2): non-test Go under internal/ + cmd/, and the seven
# migration-path packages' share of it.
MIGRATION_PKGS = cluster criu image imgproto imgcheck fleet registry
LOC_COUNT = count() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l; }
loc:
	@$(LOC_COUNT); \
	echo "non-test Go lines, internal/ + cmd/: $$(count internal cmd)"; \
	echo "of which on the migration path ($(MIGRATION_PKGS)): $$(count $(addprefix internal/,$(MIGRATION_PKGS)))"

# loc-check is the ratchet on those two counts: it fails when either is
# over its ceiling. The ceilings are the counts of the last PR that moved
# them; a PR that needs more lines raises the number here, in its own
# diff, where a reviewer sees it, and a PR that removes lines lowers it.
LOC_CEILING = 24309
LOC_MIGRATION_CEILING = 8342
loc-check:
	@$(LOC_COUNT); all=$$(count internal cmd); mig=$$(count $(addprefix internal/,$(MIGRATION_PKGS))); \
	if [ $$all -gt $(LOC_CEILING) ] || [ $$mig -gt $(LOC_MIGRATION_CEILING) ]; then \
		echo "loc-check: $$all non-test lines (ceiling $(LOC_CEILING)), $$mig on the migration path (ceiling $(LOC_MIGRATION_CEILING)): remove lines, or raise the ceiling in the Makefile in this PR"; exit 1; \
	fi; echo "loc-check: $$all <= $(LOC_CEILING), $$mig <= $(LOC_MIGRATION_CEILING)"

# check is the CI gate: compile everything, vet, run the repo's own
# analyzers, hold the line counts to their ceilings, verify every compiled
# binary's stack maps, regenerate the fixture corpora, compile and test the benchmark module, run the full
# test suite under the race detector, and measure the disabled-telemetry
# overhead (which must stay cheap enough to leave instrumented code
# unconditional).
check:
	$(GO) build ./... && $(GO) vet ./... && $(MAKE) lint && $(MAKE) loc-check && $(MAKE) updatecheck && $(MAKE) fixtures-check && $(MAKE) bench-check && $(GO) test -race ./... && $(MAKE) bench-obs

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ .

# bench-vm times the interpreter alone: host nanoseconds per guest
# instruction for an ALU loop, a load/store loop and a call/return loop on
# each ISA, and for kernel.Step over four threads (docs/perf.md,
# "Interpreter budget"). Each row runs five times for 0.2 s (~8 s in all)
# and prints its minimum: one reading varies by tens of percent on a
# shared machine, the minimum much less. The budget itself — no slow-path
# entry, no allocation on a warm loop — is gated by TestInterpreterHitPath
# in tier-1.
bench-vm:
	@out=$$($(GO) test -run=^$$ -bench=InterpreterLoop -count=5 -benchtime=0.2s ./internal/vm) || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out" | awk '/^Benchmark/ { for (i = 2; i < NF; i++) if ($$(i+1) == "ns/guest-inst") v = $$i + 0; \
		if (!($$1 in min)) { row[n++] = $$1; min[$$1] = v } else if (v < min[$$1]) min[$$1] = v } \
		END { for (i = 0; i < n; i++) printf "%-44s %6.2f ns/guest-inst (min of 5)\n", row[i], min[row[i]] }'

# bench-codec runs the flate codec's benchmarks one iteration each — a
# segment of every shape the form trial tells apart, a page batch, and the
# transposition alone in both directions (docs/perf.md, "Word planes") —
# so they keep compiling and running; the timings are informational.
bench-codec:
	$(GO) test -run=^$$ -bench='CodecFlate|Planes' -benchtime=1x ./internal/imgproto

# bench-tables regenerates every experiment table and fails if a modeled
# column — guest cycles, modeled times, byte counts; everything not read
# off the host's clock or CPU count — differs from the committed
# docs/experiments_tables.md. A change to the interpreter, the kernel or
# the timing model that moves a guest cycle shows up here.
bench-tables:
	$(GO) run ./cmd/dapper-bench -check docs/experiments_tables.md all

# bench-json regenerates the three-way migration comparison (vanilla vs
# lazy vs pre-copy), with each row's full obs telemetry report embedded,
# and archives it as machine-readable JSON; its modeled columns must match
# the committed BENCH_seed.json (see bench-tables).
bench-json:
	$(GO) run ./cmd/dapper-bench -jsonout BENCH_fig7x.json -check BENCH_seed.json fig7x

# bench-quick runs the dump, chain-fold, page-set store, install, image-send,
# lazy-fault, rewrite, verify and image-codec profiling benchmarks one
# iteration each under the race detector.
bench-quick:
	$(GO) test -race -run=^$$ -bench='^Benchmark(Dump|FoldLink|PageSetStore|InstallPages|SendImages|LazyFault|LazyFaultRun|Rewrite|RewriteLazy|ImgcheckVerify|ImageCodec)$$' -benchtime=1x .

# fuzz-smoke runs every Fuzz* target in the repo — found with `go test
# -list`, so a new one joins by existing — for 10 s each, one `go test`
# per target as -fuzz demands. Their seed corpora already run in tier-1;
# this is the mutating engine, too slow for `make check`. -fuzzminimizetime
# keeps the engine from spending a target's whole 10 s minimizing its first
# interesting input (FuzzReadImageStream's seeds are ~250 KB streams).
fuzz-smoke:
	@$(GO) test -list '^Fuzz' ./... | awk '/^Fuzz/ {t[++n] = $$1} /^ok/ {for (i = 1; i <= n; i++) print $$2, t[i]; n = 0}' | \
	while read -r pkg target; do \
		echo "== $$pkg $$target"; \
		$(GO) test -run='^$$' -fuzz="^$$target\$$" -fuzztime=10s -fuzzminimizetime=1s "$$pkg" || exit 1; \
	done

# fleet-smoke gates the control plane: the fleet package's deterministic
# fault-injection tests (retry, rollback, journal resume, drain) and the
# shared-node concurrency tests under the race detector, then the fleet
# throughput table — migs/sec and retry rate at fleet-wide concurrency
# 1/4/8 — which itself hard-fails if any job fails, any restored output
# is corrupt, or the retry path never fires.
fleet-smoke:
	$(GO) test -race ./internal/fleet/
	$(GO) test -race -run TestConcurrent ./internal/cluster/
	$(GO) run ./cmd/dapper-bench -jsonout BENCH_fleet.json fleet

# registry-smoke gates the persistent checkpoint store: the registry
# package's push, pull and crash-replay tests plus the COW clone path
# under the race detector, then the registry table — cross-dump dedup
# hit-rate on an evolving rediska server and clone fan-out latency at
# N=1/4/16 — which itself hard-fails on a zero hit-rate, zero shared
# frames, or any clone answering queries differently from its siblings.
# The run's table goes to BENCH_registry_run.json, which is not tracked
# (.gitignore names it with BENCH_fig7x.json and BENCH_fleet.json, the
# other gates' outputs); the committed BENCH_registry.json is the
# baseline it is checked against.
registry-smoke:
	$(GO) test -race ./internal/registry/ ./internal/kernel/
	$(GO) test -race -run TestClone ./internal/cluster/ ./internal/fleet/
	$(GO) run ./cmd/dapper-bench -jsonout BENCH_registry_run.json -check BENCH_registry.json registry

# bench-obs measures the telemetry fast paths: the Disabled* benchmarks
# are the nil-registry no-ops every migration pays even with telemetry
# off (target: low single-digit ns/op).
bench-obs:
	$(GO) test -bench=BenchmarkObsOverhead -run=^$$ ./internal/obs/
