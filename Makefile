GO ?= go
BENCH_JSON ?= BENCH_pathkernel.json
BENCH_FDCLOSURE_JSON ?= BENCH_fdclosure.json
BENCH_SHRED_JSON ?= BENCH_shred.json
BENCH_TOKENIZER_JSON ?= BENCH_tokenizer.json
FUZZTIME ?= 30s

.PHONY: build fmt test vet bench-vet race stress fuzz-smoke bench bench-json bench-fdclosure bench-shred bench-tok bench-check serve-smoke diff-smoke soak-smoke load-smoke verify help

build:
	$(GO) build ./...

# fmt fails when a Go file is not gofmt-clean and lists the files.
fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists:"; gofmt -l .; exit 1; }

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# bench-vet type-checks the end-to-end benchmark (e2ebench/, a module of
# its own that replaces xkprop with this tree), so a change that removes
# a name the benchmark uses fails here rather than when the benchmark is
# built. It builds offline and writes no file into the tree.
bench-vet:
	cd e2ebench && $(GO) vet ./...

# The race run uses -short: the §6 grid sweeps and the stress rounds are
# trimmed to representative points so the race detector stays fast on
# small machines (see internal/core/concurrent_test.go).
race:
	$(GO) test -race -short ./...

# stress runs the fault-injection suites (countdown cancellation, budget
# exhaustion, concurrent abort consistency) under the race detector. They
# are a subset of 'race' but named here so a focused run is one command.
stress:
	$(GO) test -race -short -run 'Abort|Budget|Countdown|Cancel|Fault|Stress|Consistency|Poisoned|Queue|Breaker' ./internal/core/ ./internal/xmlkey/ ./internal/stream/ ./internal/faultinject/ ./internal/resilience/ ./internal/server/ .

# fuzz-smoke gives each fuzz target a $(FUZZTIME) budget over the checked-in
# corpora (testdata/fuzz/). Go allows one -fuzz target per run, hence the
# five invocations.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParseKey -fuzztime=$(FUZZTIME) ./internal/xmlkey/
	$(GO) test -run='^$$' -fuzz=FuzzParseTransformation -fuzztime=$(FUZZTIME) ./internal/transform/
	$(GO) test -run='^$$' -fuzz=FuzzStreamValidator -fuzztime=$(FUZZTIME) ./internal/stream/
	$(GO) test -run='^$$' -fuzz=FuzzLinClosure -fuzztime=$(FUZZTIME) ./internal/rel/
	$(GO) test -run='^$$' -fuzz=FuzzTokenizerParity -fuzztime=$(FUZZTIME) ./internal/xmltok/

# bench runs the testing.B suite with allocation counters and then
# regenerates all four xkbench reports: the minimum-cover §6 grid
# (pathkernel), the FD-closure micro-grid (fdclosure), the streaming
# shredding grid (shred) and the tokenizer corpus (tokenizer).
bench:
	$(GO) test -bench=. -benchmem ./...
	$(MAKE) bench-json bench-fdclosure bench-shred bench-tok

# The bench-* targets run at GOMAXPROCS=1, the setting every committed
# report records; -json applies the suite's gate table (for the
# tokenizer: decoder parity and zero-alloc steady state) and refuses to
# write a report that fails it.
bench-json:
	GOMAXPROCS=1 $(GO) run ./cmd/xkbench -json $(BENCH_JSON)

bench-fdclosure:
	GOMAXPROCS=1 $(GO) run ./cmd/xkbench -suite fdclosure -json $(BENCH_FDCLOSURE_JSON)

bench-shred:
	GOMAXPROCS=1 $(GO) run ./cmd/xkbench -suite shred -json $(BENCH_SHRED_JSON)

bench-tok:
	GOMAXPROCS=1 $(GO) run ./cmd/xkbench -suite tokenizer -json $(BENCH_TOKENIZER_JSON)

# bench-check re-runs the points of the committed fdclosure report on the
# current build and fails if any is more than 25% slower (ns/op). It
# refuses a report recorded under another Go version or GOMAXPROCS, and
# ns/op compares only on the machine that produced the report, so this
# is a manual target and deliberately NOT part of `make verify`. Pass
# BENCH_FDCLOSURE_JSON=... to check another file: any suite's report
# works.
bench-check:
	GOMAXPROCS=1 $(GO) run ./cmd/xkbench -check-against $(BENCH_FDCLOSURE_JSON)

# serve-smoke boots a real xkserve on an ephemeral port and drives every
# endpoint over TCP: second identical propagation request must be a
# registry hit (no recompilation), ?timeout=1ns must be a typed 504 with
# no partial cover, /debug/vars must expose per-endpoint latency
# histograms. See internal/cli/servesmoke.go.
serve-smoke:
	$(GO) run ./cmd/xkserve -smoke

# diff-smoke runs the differential cross-check harness on a pinned seed:
# every redundant decision path (compiled kernel vs recursive oracle,
# minimumCover vs naive, in-process vs a live xkserve over TCP, verdicts
# vs searched witnesses, indexed vs fixpoint closure, streaming shredder
# vs tree evaluator with propagated-FD soundness, zero-copy tokenizer vs
# encoding/xml adapter token for token) must agree on the smoke grid,
# time-budgeted so CI cannot hang. Exit 1 means a shrunk disagreement
# was printed — replay it with the same -seed.
diff-smoke:
	$(GO) run ./cmd/xkdiff -seed 1 -cases 10 -timeout 5m

# soak-smoke runs a short seeded chaos soak: xkserve with the admission
# queue and compile breaker armed, behind a fault-injecting proxy
# (latency, resets, truncation, slow-loris), hammered by retrying
# clients. PASS requires zero invariant breaches: no goroutine leaks,
# monotonic counters, one readiness transition at drain, typed error
# bodies only, no partial results. Replay a failure with the printed
# seed; `-duration 60s -workers 32` is the full soak (EXPERIMENTS.md).
soak-smoke:
	$(GO) run ./cmd/xksoak -seed 1 -duration 5s -workers 8

# load-smoke drives the streaming shredding pipeline end to end: a
# generated workload shredded into a CSV sink must produce the exact
# expected tuple count with no violations, a key-violating fixture must
# be rejected with a typed FDViolation carrying lineage, and no goroutine
# may outlive the runs. See internal/cli/xkload.go (runLoadSmoke).
load-smoke:
	$(GO) run ./cmd/xkload -smoke

# Tier-1 verification (ROADMAP.md): build, the gofmt check, vet, the
# benchmark's vet, tests, the race run (which includes the
# fault-injection stress suites), the focused stress pass, the xkserve
# end-to-end smoke, the differential cross-check smoke, the short chaos
# soak, and the shredding-pipeline smoke. Every committed BENCH_*.json
# must then pass its suite's gate table (xkbench -check-json).
verify: build fmt vet bench-vet test race stress serve-smoke diff-smoke soak-smoke load-smoke
	@for f in BENCH_*.json; do [ ! -f "$$f" ] || $(GO) run ./cmd/xkbench -check-json "$$f" || exit 1; done

help:
	@echo "Targets:"
	@echo "  build           go build ./..."
	@echo "  fmt             fail if gofmt -l . lists any file"
	@echo "  test            go test ./..."
	@echo "  vet             go vet ./..."
	@echo "  bench-vet       go vet ./... inside e2ebench/ (the benchmark still builds)"
	@echo "  race            full test suite under -race -short"
	@echo "  stress          fault-injection suites only, under -race -short"
	@echo "  fuzz-smoke      run each fuzz target for FUZZTIME (default 30s)"
	@echo "  bench           testing.B suite + all four xkbench JSON reports"
	@echo "  bench-json      regenerate $(BENCH_JSON) only (GOMAXPROCS=1)"
	@echo "  bench-fdclosure regenerate $(BENCH_FDCLOSURE_JSON) only (FD-closure micro-grid)"
	@echo "  bench-shred     regenerate $(BENCH_SHRED_JSON) only (streaming shredding grid)"
	@echo "  bench-tok       regenerate $(BENCH_TOKENIZER_JSON) only (fast vs std tokenizer corpus)"
	@echo "  bench-check     re-run the points of $(BENCH_FDCLOSURE_JSON) and fail on >25%"
	@echo "                  ns/op regression; any suite's report works via BENCH_FDCLOSURE_JSON=...;"
	@echo "                  same machine, Go version and GOMAXPROCS only, so it is manual"
	@echo "  serve-smoke     boot xkserve on an ephemeral port and drive every endpoint"
	@echo "  diff-smoke      cross-check every redundant decision path on a pinned seed"
	@echo "  soak-smoke      short seeded chaos soak of xkserve behind the fault proxy"
	@echo "  load-smoke      end-to-end shredding pipeline smoke (exact counts, rejection, leaks)"
	@echo "  verify          build + fmt + vet + bench-vet + test + race + stress + serve-smoke + diff-smoke + soak-smoke + load-smoke + -check-json on every BENCH_*.json"
