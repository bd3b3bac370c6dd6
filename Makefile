# Tier-1 gate: everything a change must pass before merging.
# `make check` is what CI runs; the individual targets exist for local use.

GO ?= go

.PHONY: check fmt build test race soak fuzz fuzz-storage fuzz-diff bench bench-smoke bench-quick bench-native bench-native-check serve-check bench-serve bench-serve-check crash-check vuln clean

check: fmt build race soak fuzz-diff bench-smoke bench-quick bench-native-check serve-check bench-serve-check crash-check vuln

# Fails when any tracked Go file is not gofmt-formatted (lists them).
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "fmt: gofmt -w these files:"; echo "$$out"; exit 1; fi

# Builds and vets the host build, then vets a 32-bit (int is 32 bits) and
# a big-endian (column.View decodes a typed copy) build; neither needs an
# emulator, and neither can run its tests here.
build:
	$(GO) build ./...
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...
	GOARCH=s390x $(GO) vet ./...

# Plain test run (the seed's tier-1 gate).
test:
	$(GO) test ./...

# Full suite under the race detector, including the concurrency stress
# tests; slower than `make test` but the tier-1 bar for this repo.
race:
	$(GO) test -race ./...

# Short chaos soak under the race detector: hundreds of concurrent
# governed queries with fault injection, byte-identical-result and
# goroutine-leak checks. Scale up with FUSEDSCAN_SOAK_QUERIES=5000.
soak:
	$(GO) test -race -run TestSoakGovernedChaos -count=1 .

# Short coverage-guided fuzz of the SQL parser.
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/sqlparse

# Differential fuzz, three bespoke fuzzers in one race-detector run, each
# checked against an independent scalar oracle under both the default and
# native configs:
# - the multi-table pipeline: randomized join + GROUP BY queries
#   (int32/int64/float64 keys incl. NaN, NULL keys, duplicate keys,
#   residual col-vs-col predicates, row counts crossing the 64Ki batch
#   boundary) against a nested-loop oracle;
# - scan-on-compressed storage (DESIGN.md §15): the same randomized
#   multi-predicate aggregate over a packed table and its plain twin,
#   sweeping all eight integer types, packed widths 1..64, NULL densities,
#   64Ki chunk-boundary row counts and frame-of-reference frames anchored
#   at the type extremes, against a key-space oracle;
# - the secondary-index access path (DESIGN.md §16): random comparison
#   predicates over indexed and unindexed int columns — NULLs, negative
#   keys, heavy duplication — run as forced-index, hint-suppressed scan and
#   unhinted cost-based plans, with every variant's row positions checked
#   bit-identical against the oracle.
# A short pass of each (8, 10 and 12 rounds) also runs inside the plain
# test suite.
fuzz-diff:
	FUSEDSCAN_FUZZ_JOIN_ROUNDS=48 FUSEDSCAN_FUZZ_PACKED_ROUNDS=64 FUSEDSCAN_FUZZ_INDEX_ROUNDS=64 \
		$(GO) test -race -count=1 -run 'TestFuzzJoinGroupByDifferential|TestFuzzPackedDifferential|TestFuzzIndexDifferential' .

# Coverage-guided fuzz of the binary table decoder and the streaming
# checksum verifier (hostile-input hardening; see DESIGN.md §12).
fuzz-storage:
	$(GO) test -run=NONE -fuzz=FuzzReadTable -fuzztime=30s ./internal/storage
	$(GO) test -run=NONE -fuzz=FuzzVerifyTable -fuzztime=30s ./internal/storage

bench:
	$(GO) run ./cmd/fusedscan-bench -fig 1 -scale 0.01 -reps 1

# Three-query smoke benchmark over the deterministic machine model. The
# simulated metrics are byte-stable, so the run is diffed against the
# checked-in baseline: a mismatch means a behaviour or cost-model change
# that must be reviewed (regenerate with
# `go run ./cmd/fusedscan-smoke -out BENCH_SMOKE.json`).
bench-smoke:
	$(GO) run ./cmd/fusedscan-smoke | diff -u BENCH_SMOKE.json - \
		|| (echo "bench-smoke: simulated metrics drifted from BENCH_SMOKE.json (see diff above)"; exit 1)

# The repo benchmark (BENCHMARK.json) at 1 % size for one second per
# workload, untraced and then traced, over all four workloads. Fails when a
# run exits non-zero or any result line reports failed ops — a change that
# breaks the benchmark's staged walker or its oracle shows here before a
# full run. Output goes to the git-ignored benchmark/out.
bench-quick:
	@mkdir -p benchmark/out
	@for mode in untraced traced; do \
		flag=; [ $$mode = traced ] && flag=-trace; \
		out=benchmark/out/quick-$$mode.txt; \
		sh benchmark/run.sh -scale 0.01 -seconds 1 $$flag > $$out \
			|| { cat $$out; echo "bench-quick: $$mode run exited non-zero"; exit 1; }; \
		if grep '"failed":[1-9]' $$out; then echo "bench-quick: $$mode run reports failed ops (see $$out)"; exit 1; fi; \
	done; echo "bench-quick: ok"

# Wall-clock benchmarks of the native turbo path: Go micro-benchmarks for
# the generic block kernels (every type, BenchmarkNativeMask) and the
# packed kernels, for the hash join, aggregation sink and projection
# sink, plus the end-to-end native-vs-emulated comparison.
# Regenerate the checked-in baseline with
# `go run ./cmd/fusedscan-smoke -native -out BENCH_NATIVE.json`.
bench-native:
	$(GO) test -run=NONE -bench='Native|Emulated' -benchmem ./internal/scan
	$(GO) test -run=NONE -bench='HashJoin|GroupBySink|ProjectionSink' -benchmem ./internal/pqp
	$(GO) run ./cmd/fusedscan-smoke -native

# Regression gate over BENCH_NATIVE.json, one run for three axes. Counts
# and prune statistics must match exactly; each native leg's wall-clock
# over a roofline read timed beside it (a []uint64 sum of the bytes it
# scans) may not regress by more than 20% against the baseline's ratio,
# and the native-vs-emulated speedup must stay above the 10x floor.
# Scan-on-compressed: the bit-packed native scan must beat the plain
# native scan by the 1.5x floor and never touch more bytes than it.
# Secondary index: the cost-chosen point lookup on a 10M-row shuffled
# unique-key column must beat the full native scan by the 5x floor, and a
# forced index hint at 40% selectivity must stay measurably slower than
# the scan it overrides — the dolt lesson, checked on every run.
bench-native-check:
	$(GO) run ./cmd/fusedscan-smoke -native -check BENCH_NATIVE.json -tol 0.20

# End-to-end check of the HTTP query service: starts an ephemeral server
# on a loopback port and drives a scripted smoke client through ad-hoc
# queries (byte-checked against a direct engine), prepared statements
# (plan-cache miss then hits, asserted via /varz), admission shedding
# (a real 429 with Retry-After under load) and a streamed 1M-row result.
serve-check:
	$(GO) run ./cmd/fusedscan-server -selfcheck

# Sustained-overload gate: an in-process server under ~2x its calibrated
# capacity with a mixed ad-hoc/prepared/streamed workload, a stalled
# streaming reader, an injected write stall and a fault-injected
# recovery leg. Regenerate the checked-in baseline with
# `go run ./cmd/fusedscan-load -out BENCH_SERVE.json`.
bench-serve:
	$(GO) run ./cmd/fusedscan-load -out BENCH_SERVE.json

# Regression gate over BENCH_SERVE.json: hard invariants always (typed
# errors only under overload, bounded stall disconnect, zero duplicated
# results), plus p99 latency within 20% of baseline and shed rate within
# +0.20 absolute.
bench-serve-check:
	$(GO) run ./cmd/fusedscan-load -check BENCH_SERVE.json -tol 0.20

# Crash-recovery harness: spawns fault-injected child servers on a
# durable data directory, SIGKILL-equivalently crashes them mid-DDL at
# each durability fault site (WAL append, snapshot rename, mid-snapshot
# write), restarts on the same directory and asserts every acknowledged
# table recovers byte-identically; a corruption leg then flips a snapshot
# byte and asserts the quarantine taxonomy. Deterministic via -seed.
crash-check:
	$(GO) run ./cmd/fusedscan-server -crashcheck -crash-cycles 3 -seed 1

# Vulnerability scan, best-effort: this environment has no network, so
# the tool is used only when already installed — never fetched.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (no network installs here)"; \
	fi

clean:
	$(GO) clean -testcache
