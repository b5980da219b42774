# Convenience targets for the IVE reproduction workspace.
# `make verify` is the tier-1 gate CI enforces.

CARGO ?= cargo

.PHONY: all build test verify figures hotpath scaling doc fmt fmt-check clippy lint clean

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
