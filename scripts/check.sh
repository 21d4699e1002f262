#!/usr/bin/env bash
# Full local gate: build, test, then the ndlint static pass.
# Mirrors what CI runs; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# Every target of every crate, so the criterion benches and examples
# compile even though no test runs them.
cargo build --release --workspace --all-targets
# Root suite plus every crate's own unit/property tests (the schedule
# state machine, wire codecs, ndlint's fixtures, ... live there).
cargo test -q --workspace
# The opt-in fast-math families must pass the same suites: NDPIPE_MATH=fast
# flips the process-default MathPolicy, so every non-pinned GEMM in the
# tests runs through the FMA/AVX-512 kernels.
NDPIPE_MATH=fast cargo test -q --workspace
# The benchmark builds against crates/* by path and is not a workspace
# member: its tests (incl. the --tiny run of all four workloads with
# every correctness check) are what catches a public-API change that
# would stop BENCHMARK.json's command from compiling.
cargo test -q --offline --manifest-path ledger/Cargo.toml
# The ledger is frozen outside benchmark changes. Cargo silently rewrites
# ledger/Cargo.lock when a path crate's dependency list changes, so a new
# edge between workspace crates fails here instead of in the benchmark run.
git diff --exit-code -- ledger/
# Static pass: machine-readable report diffed against the checked-in
# baseline (fails on new findings), archived next to the bench JSON,
# plus the wall-clock budget artifact (< 5 s for the whole workspace).
mkdir -p results
cargo run -q -p ndlint --release -- . \
    --json results/ndlint.json \
    --baseline ndlint.baseline.json \
    --bench-out results/BENCH_ndlint.json
test -s results/ndlint.json
test -s results/BENCH_ndlint.json
# Bench smoke: the measured benches must run end-to-end and write their
# JSON artifacts (fast configs; numbers are noisy, existence is the gate).
cargo run -q -p bench --release --bin bench_report -- --fast >/dev/null
test -s results/BENCH_npe_pipeline.json
test -s results/BENCH_gemm_kernel.json
test -s results/BENCH_gemm_fast.json
test -s results/BENCH_telemetry_overhead.json
test -s results/BENCH_rpc_concurrency.json
test -s results/BENCH_placement.json
test -s results/BENCH_ftdmp_pipeline.json
# RPC server stress smoke (8 concurrent sessions against one PipeStore)
# and the placement rejoin soak (kill/restart/rejoin every node).
cargo test -q --release --test cluster_failover -- --ignored
# Pipelined FT-DMP slow-peer soak: one store sleeping per extracted row,
# the schedule must steal its micro-batches and still converge.
cargo test -q --release --test ftdmp_pipeline -- --ignored
# Event-loop soak: ≥1000 concurrent sessions, zero lost replies, p99
# asserted from the server's telemetry histograms.
cargo test -q --release --test rpc_event_server -- --ignored
# Runtime invariant sanitizer: re-run the failover, event-server,
# pipelined FT-DMP and feature-cache suites (soaks included) with the
# lock-order witness and channel-depth watchdog armed. The FT-DMP suite
# has two server workers extracting concurrently through each store's
# feature cache, and its slow-peer soak steals slices; in the feature-cache
# suite `InstallHead` takes the store write lock between rounds whose
# extractions run through that cache. A separate target dir keeps the
# cfg'd artifacts from thrashing the main cache.
RUSTFLAGS='--cfg ndpipe_sanitize' CARGO_TARGET_DIR=target/sanitize \
    cargo test -q --release --test cluster_failover --test rpc_event_server --test ftdmp_pipeline \
    --test feature_cache
RUSTFLAGS='--cfg ndpipe_sanitize' CARGO_TARGET_DIR=target/sanitize \
    cargo test -q --release --test cluster_failover --test rpc_event_server --test ftdmp_pipeline \
    --test feature_cache -- --ignored
