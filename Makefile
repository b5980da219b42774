# Convenience targets for the IVE reproduction workspace.
# `make verify` is the tier-1 gate CI enforces.

CARGO ?= cargo

.PHONY: all build test verify bench-check figures hotpath scaling doc fmt fmt-check clippy lint clean

all: build

## Build the whole workspace (debug).
build:
	$(CARGO) build

## Run every test in the workspace.
test:
	$(CARGO) test -q

## Tier-1 verify: exactly what CI runs as the gate.
verify:
	$(CARGO) build --release && $(CARGO) test -q

## CI's benchmark gate, locally: the benchmark package's own tests, one
## quick traced run of every workload (tee'd to bench_quick.log with its
## exit status kept), and its deterministic rows diffed against
## BENCH_deterministic.txt. Building the benchmark rewrites the stale
## ive_benchmark/Cargo.lock; do not commit that rewrite (undo it with
## `git checkout ive_benchmark/Cargo.lock`).
bench-check: SHELL := /bin/bash
bench-check:
	$(CARGO) test --offline --manifest-path ive_benchmark/Cargo.toml
	set -o pipefail; $(CARGO) run --release --offline --quiet --manifest-path ive_benchmark/Cargo.toml -- \
		--workload all --seed 1 --traced --quick | tee bench_quick.log
	awk '$$2 ~ /^(query_bytes|response_bytes|pir\.wire\.hello_bytes|failed_share|pir\.kv\.slot_queries_per_get)$$/ { print $$1, $$2, $$3 }' \
		bench_quick.log | diff BENCH_deterministic.txt -

## Regenerate every paper table/figure in one shot (all_experiments
## runs the sibling binaries, so build them all first).
figures:
	$(CARGO) build --release -p ive_bench --bins
	$(CARGO) run --release -p ive_bench --bin all_experiments

## Run the VPE kernel backend matrix (scalar/optimized/simd where AVX2
## is detected) on the RowSel hot path and refresh BENCH_hotpath.json.
hotpath:
	$(CARGO) run --release -p ive_bench --bin hotpath

## Sweep 1..num_cpus RowSel threads over scan/answer/serve-QPS, check
## bit-identity against the scalar single-thread reference, and refresh
## BENCH_scaling.json with the thread-scaling curve.
scaling:
	$(CARGO) run --release -p ive_bench --bin scaling

## Build the API docs with CI's settings (warnings are errors).
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps

## Format the tree / check formatting without writing.
fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all -- --check

## Clippy with CI's settings (every `unsafe` block and impl carries a
## `// SAFETY:` comment).
clippy:
	$(CARGO) clippy --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks

lint: fmt-check clippy

clean:
	$(CARGO) clean
