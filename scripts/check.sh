#!/usr/bin/env bash
# Full local gate: format, build, test (ndlint included), clippy, then
# the bench smoke, soaks and sanitizer runs.
# Mirrors what CI runs; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

# Formatting first: every workspace crate must be rustfmt-clean (the
# ledger is not a workspace member and is not checked here).
cargo fmt --all --check
cargo build --release
# Every target of every crate, so the examples compile even though no
# test runs them.
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
# Clippy over every target, warnings as errors. `clippy.toml` makes the
# unbounded channel constructors errors; ndlint's own pass already ran as
# the root suite's `workspace_is_lint_clean` under `cargo test` above.
cargo clippy -q --workspace --all-targets -- -D warnings
# Bench smoke: the measured reports must run end to end and exit 0
# (fast configs; numbers are noisy, completion is the gate).
cargo run -q -p bench --release --bin repro -- --fast npe_pipeline gemm_kernel gemm_fast \
    telemetry_overhead rpc_concurrency placement_rebalance ftdmp_pipeline >/dev/null
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
