# firestarter-go — common tasks

GO ?= go

# Where the smokes below put the CLIs they build and the files they
# write.
SMOKE_DIR ?= /tmp/fire-smoke

.PHONY: all build test vet bench bench-smoke obsv-smoke smoke-tools trace-smoke campaign-smoke diff-smoke replay-smoke eval examples cover clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Regenerate every table and figure of the paper (plus extensions).
eval:
	$(GO) run ./cmd/firebench

# The same experiments as Go benchmarks.
bench:
	$(GO) test -bench=. -benchmem

# A fast end-to-end pass over every experiment with a reduced workload —
# CI smoke coverage for the full firebench surface, parallel harness on.
# The output must equal the pinned golden byte for byte (rewrite it only
# for an intended change: go test ./cmd/firebench -update).
bench-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/firebench -requests 40 -faults 4 -concurrency 2 -parallel 4 > $(SMOKE_DIR)/suite.txt
	cmp $(SMOKE_DIR)/suite.txt cmd/firebench/testdata/suite.golden
	@echo bench-smoke OK

# End-to-end observability smoke: drive the hardened nginx analog with
# spans, metrics and the guest profiler exported as JSONL, then lint the
# three files (schema + monotonic cycles + exactly one profile total).
# The Observe run itself fails if metrics totals don't reconcile with the
# runtime counters or profiler attribution doesn't sum to machine cycles.
obsv-smoke:
	mkdir -p $(SMOKE_DIR)
	$(GO) run ./cmd/firebench -experiment nginx -requests 60 \
		-trace-out $(SMOKE_DIR)/trace.jsonl \
		-metrics-out $(SMOKE_DIR)/metrics.jsonl \
		-profile $(SMOKE_DIR)/profile.jsonl > /dev/null
	$(GO) run ./cmd/obsvlint -schema trace $(SMOKE_DIR)/trace.jsonl
	$(GO) run ./cmd/obsvlint -schema metrics $(SMOKE_DIR)/metrics.jsonl
	$(GO) run ./cmd/obsvlint -schema profile $(SMOKE_DIR)/profile.jsonl
	@echo obsv-smoke OK

# The CLIs the smokes below drive, built once per make invocation.
BIN := $(SMOKE_DIR)/bin

smoke-tools:
	$(GO) build -o $(BIN)/ ./cmd/firebench ./cmd/obsvlint ./cmd/firetrace

# Request-tracing smoke: the full round trip. A chaos soak exports the
# campaign-global span log; obsvlint validates schema AND trace-ID
# causality (every req-start reaches exactly one terminal, no orphaned
# trace references); firetrace must pass -strict and emit the analysis,
# Chrome trace and folded stacks; then the chaos run and an nginx
# observability run are repeated and every artifact must compare
# byte-for-byte — the determinism contract behind all trace tooling.
trace-smoke: smoke-tools
	$(BIN)/firebench -experiment chaos -requests 30 -faults 2 \
		-concurrency 2 -parallel 4 \
		-trace-out $(SMOKE_DIR)/trace-smoke.jsonl > /dev/null
	$(BIN)/obsvlint -schema trace -causality $(SMOKE_DIR)/trace-smoke.jsonl
	$(BIN)/firebench -experiment nginx -requests 60 \
		-trace-out $(SMOKE_DIR)/trace-nginx.jsonl \
		-profile $(SMOKE_DIR)/trace-prof.jsonl > /dev/null
	$(BIN)/obsvlint -schema trace -causality $(SMOKE_DIR)/trace-nginx.jsonl
	$(BIN)/firetrace -strict -breakdown -timeline 3 \
		-chrome $(SMOKE_DIR)/trace-chrome.json \
		-folded $(SMOKE_DIR)/trace-folded.txt -profile $(SMOKE_DIR)/trace-prof.jsonl \
		$(SMOKE_DIR)/trace-smoke.jsonl > $(SMOKE_DIR)/trace-report.txt
	$(BIN)/firebench -experiment chaos -requests 30 -faults 2 \
		-concurrency 2 -parallel 4 \
		-trace-out $(SMOKE_DIR)/trace-smoke2.jsonl > /dev/null
	cmp $(SMOKE_DIR)/trace-smoke.jsonl $(SMOKE_DIR)/trace-smoke2.jsonl
	cp $(SMOKE_DIR)/trace-smoke2.jsonl $(SMOKE_DIR)/trace-smoke.jsonl
	$(BIN)/firetrace -strict -breakdown -timeline 3 \
		-chrome $(SMOKE_DIR)/trace-chrome2.json \
		$(SMOKE_DIR)/trace-smoke.jsonl > $(SMOKE_DIR)/trace-report2.txt
	cmp $(SMOKE_DIR)/trace-report.txt $(SMOKE_DIR)/trace-report2.txt
	cmp $(SMOKE_DIR)/trace-chrome.json $(SMOKE_DIR)/trace-chrome2.json
	@echo trace-smoke OK

# Campaign smoke: one row per span-log experiment, each run at
# -parallel 4 with its experiment-global span log linted for the trace
# schema and the shared causality rules (obsv.Causality: every req-start
# reaches exactly one terminal across fail-overs, drain hand-offs and
# shed arrivals; the heap-domain ordering rules hold). Rows: the fleet
# replica-scaling chaos matrix, the open-loop offered-load sweep, and the
# heap-domain undo-vs-discard ablation plus containment matrix. Each
# experiment itself fails on any stats/metrics/span reconciliation
# mismatch, silent incarnation death or cross-request taint leak. The
# serial-vs-parallel byte-compare of every experiment is the Go test
# TestSerialEqualsParallel (internal/bench).
campaign-smoke: smoke-tools
	set -e; for row in \
		"fleet -requests 30 -concurrency 2 -replicas 1,2" \
		"openloop -requests 60" \
		"domains -requests 60 -faults 4 -concurrency 2"; do \
		set -- $$row; exp=$$1; shift; \
		$(BIN)/firebench -experiment $$exp "$$@" -parallel 4 \
			-trace-out $(SMOKE_DIR)/$$exp.jsonl > $(SMOKE_DIR)/$$exp-report.txt; \
		$(BIN)/obsvlint -schema trace -causality $(SMOKE_DIR)/$$exp.jsonl; \
	done
	@echo campaign-smoke OK

# Differential-execution smoke: the default firebench suite under the
# tree-walking interpreter and the compiled bytecode backend must render
# byte-for-byte identical output — the backend equivalence contract
# (docs/RUNTIME.md "Bytecode backend") checked end to end.
diff-smoke: smoke-tools
	$(BIN)/firebench -backend tree -requests 40 -faults 4 \
		-concurrency 2 -parallel 4 > $(SMOKE_DIR)/diff-tree.txt
	$(BIN)/firebench -backend bytecode -requests 40 -faults 4 \
		-concurrency 2 -parallel 4 > $(SMOKE_DIR)/diff-bytecode.txt
	cmp $(SMOKE_DIR)/diff-tree.txt $(SMOKE_DIR)/diff-bytecode.txt
	@echo diff-smoke OK

# Flight-recorder smoke. First the committed fixture
# (cmd/firetrace/testdata/manifest.json, recorded by an older build)
# must still replay to completion and survive a -reverse-step, so a
# change that breaks existing recordings fails here. Then a chaos
# campaign with -record-out captures a replay manifest for every
# incarnation that ended unrecovered or with the breaker open, the
# heap-domain containment matrix (-experiment domains) likewise, and the
# open-loop sweep one for every failing rung; each one must then (a)
# re-execute to completion with every span verified against the
# recorded hash chain and the replayed stream byte-identical to the
# companion file, (b) halt at the recorded faulting instruction under
# the default -stop-at-cycle -1, and (c) for an incarnation manifest,
# survive a -reverse-step (re-execution to the boundary one retired
# instruction earlier, cross-checked against the checkpoint ring).
# firetrace accepts -reverse-step only for incarnation manifests, so the
# openloop ones skip (c). Any divergence — one span, one digest — fails
# the build.
replay-smoke: smoke-tools
	$(BIN)/firetrace -replay cmd/firetrace/testdata/manifest.json \
		-stop-at-cycle 0 > /dev/null
	$(BIN)/firetrace -replay cmd/firetrace/testdata/manifest.json \
		-reverse-step -ckpt-every 1000 > /dev/null
	rm -rf $(SMOKE_DIR)/replay $(SMOKE_DIR)/replay2 $(SMOKE_DIR)/replay-open \
		$(SMOKE_DIR)/replay-dom
	$(BIN)/firebench -experiment chaos -requests 24 -faults 1 \
		-concurrency 2 -seed 3 -parallel 4 \
		-record-out $(SMOKE_DIR)/replay -fingerprint > /dev/null
	$(BIN)/firebench -experiment chaos -requests 40 -faults 2 \
		-concurrency 2 -parallel 4 \
		-record-out $(SMOKE_DIR)/replay2 -fingerprint > /dev/null
	$(BIN)/firebench -experiment openloop -requests 600 -seed 2 -parallel 4 \
		-record-out $(SMOKE_DIR)/replay-open -fingerprint > /dev/null
	$(BIN)/firebench -experiment domains -requests 60 -faults 4 \
		-concurrency 2 -parallel 4 \
		-record-out $(SMOKE_DIR)/replay-dom > /dev/null
	ls $(SMOKE_DIR)/replay/*.json $(SMOKE_DIR)/replay2/*.json \
		$(SMOKE_DIR)/replay-open/*.json $(SMOKE_DIR)/replay-dom/*.json > /dev/null
	for m in $(SMOKE_DIR)/replay/*.json $(SMOKE_DIR)/replay2/*.json \
		$(SMOKE_DIR)/replay-open/*.json $(SMOKE_DIR)/replay-dom/*.json; do \
		$(BIN)/firetrace -manifest $$m > /dev/null || exit 1; \
		$(BIN)/firetrace -replay $$m -stop-at-cycle 0 \
			-replay-spans $$m.replayed.jsonl > /dev/null || exit 1; \
		cmp $$m.replayed.jsonl $${m%.json}.spans.jsonl || exit 1; \
		$(BIN)/firetrace -replay $$m > /dev/null || exit 1; \
		case $$m in $(SMOKE_DIR)/replay-open/*) continue;; esac; \
		$(BIN)/firetrace -replay $$m -reverse-step -ckpt-every 1000 \
			> /dev/null || exit 1; \
	done
	@echo replay-smoke OK

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/webserver
	$(GO) run ./examples/kvstore
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/customapp

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

clean:
	rm -f coverage.out test_output.txt bench_output.txt
