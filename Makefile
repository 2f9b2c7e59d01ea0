GO ?= go

# Packages whose tests exercise the concurrent engine and therefore run
# again under the race detector in `make verify`.
RACE_PKGS := ./internal/core ./internal/pool ./internal/verify ./internal/tracing ./internal/serve ./internal/perfmon

.PHONY: build test test-386 vet lint lint-codegen race race-bench telemetry-overhead trace-smoke fuzz serve-obs-smoke verify clean benchmark benchmark-aa

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static-analysis gate: go vet, the project analyzers (hotalloc, latchcheck,
# privforce, vecvalue, atomiccheck, hotprop — see internal/analysis), the
# escape-budget gate that diffs `-gcflags=-m` hot-loop escapes against the
# checked-in baseline, and the compiler-backed codegen gates (lint-codegen).
lint: vet lint-codegen
	$(GO) run ./cmd/mwlint ./...
	$(GO) run ./cmd/mwlint -escapes

# Codegen gates (amd64-only; mwlint prints a skip notice elsewhere):
#   -vecasm  parses `go build -gcflags=-S` under GOAMD64=v3 and checks each
#            //mw:hotpath function's instruction mix (packed FP present in
#            the LJ kernels, zero runtime calls in hot loops) against
#            internal/analysis/testdata/vecasm.baseline. The full
#            per-function census lands in mwlint.vecasm.txt (CI artifact).
#   -bce     diffs `-gcflags=-d=ssa/check_bce` bounds-check diagnostics in
#            hot loops against bce.baseline — empty for forces/lj.go, so a
#            new check in a pair loop fails the build.
# Regenerate after deliberate kernel changes with `mwlint -vecasm -update`
# and `mwlint -bce -update`.
lint-codegen:
	$(GO) run ./cmd/mwlint -vecasm -report mwlint.vecasm.txt
	$(GO) run ./cmd/mwlint -bce

test:
	$(GO) test ./...

# The non-amd64 build: vet everything for 386 (32-bit int, no asm), then run
# the engine packages there. It builds lj_cluster_noasm.go, so the engine
# runs AccumulateClusterListFast where amd64 would run the AVX2 kernel —
# the only place the no-AVX2 fallback is exercised.
test-386:
	GOARCH=386 $(GO) vet ./...
	GOARCH=386 $(GO) test -count=1 ./internal/forces ./internal/cells ./internal/core ./internal/verify

# -count=1 defeats the test cache: the differential matrix must actually
# re-execute under the race detector every time.
race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# One step of every benchmark workload under the race detector: -benchtime=1x
# drives the full phase pipeline (fan-out, latch, reduction) across all queue
# topologies without the cost of a timed run.
race-bench:
	$(GO) test -race -count=1 -run '^$$' \
		-bench 'BenchmarkStep|BenchmarkQueueTopology|BenchmarkForceReduction' \
		-benchtime 1x .

# Observer-effect regression gates: the live telemetry layer must stay
# under a 2% overhead on every paper workload, and the serving layer's
# production-sampled request tracing (TraceSample=64) must stay under the
# same budget against an untraced server (§IV-A methodology applied to
# internal/telemetry and internal/serve). Fails the build on a breach.
telemetry-overhead:
	$(GO) run ./cmd/mwbench observer-native -gate
	$(GO) run ./cmd/mwbench observer-serve -gate

# Trace-timeline smoke: a short traced Al-1000 run whose exported Chrome
# trace JSON must pass structural validation (record validates what it
# wrote; export re-validates the artifact from disk). CI uploads the file.
trace-smoke:
	$(GO) run ./cmd/mwtrace record -bench Al-1000 -threads 4 -steps 120 -o mw.trace.json
	$(GO) run ./cmd/mwtrace export -in mw.trace.json

# Short fuzz smoke of the parsers (seed corpus always runs under plain
# `go test`; this adds a minute of coverage-guided exploration).
fuzz:
	$(GO) test -fuzz=FuzzLoadSystem -fuzztime=30s ./internal/mml
	$(GO) test -fuzz=FuzzReadFrames -fuzztime=30s ./internal/xyz
	$(GO) test -fuzz=FuzzReorderTopology -fuzztime=30s ./internal/atom
	$(GO) test -run '^$$' -fuzz=FuzzTraceparent -fuzztime=30s ./internal/serve
	$(GO) test -run '^$$' -fuzz=FuzzSessionPath -fuzztime=30s ./internal/serve
	$(GO) test -run '^$$' -fuzz=FuzzStepParams -fuzztime=30s ./internal/serve
	$(GO) test -run '^$$' -fuzz=FuzzCreateModel -fuzztime=30s ./internal/serve
	$(GO) test -run '^$$' -fuzz=FuzzClusterList -fuzztime=30s ./internal/cells

# Serving-observability smoke: boot mwserved with every request traced,
# drive it with curl (create 4 lj-gas sessions, step each 3 times; any
# non-2xx fails the target), pull the request-trace artifact through
# `mwtrace serve` (which structurally validates the span trees), and
# snapshot the SLO error-budget view. CI uploads serve.trace.json.
serve-obs-smoke:
	$(GO) build -o mwserved.obs ./cmd/mwserved
	./mwserved.obs -addr 127.0.0.1:7978 -trace-sample 1 -slo-target 250ms & pid=$$!; \
	base=http://127.0.0.1:7978; \
	curl -fsS --retry 30 --retry-connrefused -o /dev/null $$base/healthz; \
	status=$$?; \
	for i in 1 2 3 4; do \
		[ $$status -eq 0 ] || break; \
		id=$$(curl -fsS -X POST "$$base/v1/sessions?workload=lj-gas&n=3" | \
			sed -n 's/.*"id": *"\([0-9a-f]*\)".*/\1/p'); \
		[ -n "$$id" ] || { status=1; break; }; \
		for r in 1 2 3; do \
			curl -fsS -o /dev/null -X POST "$$base/v1/sessions/$$id/step?n=2" || { status=1; break; }; \
		done; \
	done; \
	if [ $$status -eq 0 ]; then \
		$(GO) run ./cmd/mwtrace serve -addr $$base -o serve.trace.json; \
		status=$$?; \
	fi; \
	if [ $$status -eq 0 ]; then \
		$(GO) run ./cmd/mwtop -addr 127.0.0.1:7978 -slo -once; \
		status=$$?; \
	fi; \
	kill $$pid 2>/dev/null; rm -f mwserved.obs; \
	exit $$status

# The end-to-end benchmark declared in BENCHMARK.json: all six workloads,
# one child process each. Workloads, metrics and flags: benchmark/README.md.
benchmark:
	$(GO) run ./benchmark

# A/A noise check: the untraced set twice in A B B A order, held to the
# BENCHMARK.json bounds; exits non-zero on a breach. See benchmark/README.md.
benchmark-aa:
	$(GO) run ./benchmark -aa

# The full correctness gate — what CI runs. See README.md §Verification.
verify: lint build test test-386 race race-bench telemetry-overhead trace-smoke serve-obs-smoke

clean:
	$(GO) clean ./...
