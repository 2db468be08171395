#!/usr/bin/env bash
# Tier-1 gate: everything must build, every test must pass, clippy must be
# clean at -D warnings. Run from the repo root.
#
# Offline environments: the workspace's external-looking deps
# (rand/serde/proptest/criterion) resolve to the in-repo crates under
# stubs/ via [patch.crates-io] in the root Cargo.toml, so no network or
# vendored registry is needed — `cargo build --offline` just works.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
cargo test --workspace -q
# The compile-once / execute-many contract (plan reuse, payload isolation,
# serde round-trip) has its own integration suite; run it by name so a
# filtered `cargo test` invocation can never silently skip it.
cargo test -p tsm-core --test plan_reuse -q
# The persistent worker pool behind the parallel engine: serial≡parallel
# bit-identity and trace identity across randomized workloads and worker
# counts, pool rebuilds on a live executor, TSM_THREADS resolution.
cargo test -p tsm-core --test pool_determinism -q
# Likewise the fault path: datapath BER injection, FEC bit-for-bit
# verification, and the replay/blame/failover recovery loop.
cargo test -p tsm-core --test fault_path -q
# The observability layer: the trace crate itself, the serial≡parallel
# trace-identity contract, and the fault-path timeline assertions.
cargo test -p tsm-trace -q
cargo test -p tsm-core --test trace_identity -q
cargo test -p tsm-core --test trace_fault -q
# The plan-vs-actual conformance invariant: fault-free runs certify with
# zero skew (executor and full launch), replays itemize deterministic
# skew, lossy traces are refused.
cargo test -p tsm-core --test profile_conformance -q
# The serving runtime: launch-vs-serve-of-one bit/trace identity (both
# exec modes, fault-free and replay paths), WorkQueue total-order
# proptests, and batch-width independence of serving outcomes.
cargo test -p tsm-core --test serve_identity -q
cargo test -p tsm-core --test serving_queue -q
# Golden pins of Server::serve with every observer on (clean and marginal
# fabric, certify on and off): the report and the launch trace must match
# the pinned digests byte for byte.
cargo test -p tsm-core --test serve_golden -q
# The plan-residency layer: multi-model reuse, budget-0 single-entry
# equivalence, pre-residency trace-shape pinning, failover epoch drops,
# the warm-start tier round trip, and the LRU-vs-reference proptest.
cargo test -p tsm-core --test residency -q
# The windowed telemetry layer: launch/serve off-identity (sampling off is
# bit-identical to pre-feature behaviour), heatmap-vs-trace agreement,
# SLO-series accounting, JSON bit-reproducibility, and hostile-label
# escaping through both exporters.
cargo test -p tsm-core --test telemetry -q
# The causal attribution layer: every served request's stage breakdown
# sums exactly to its latency (clean, replaying, and certified paths),
# aggregation is the exact fold of the breakdowns, off-identity holds,
# and the JSON round trip is byte-stable.
cargo test -p tsm-core --test attribution -q
# The incident flight recorder: trigger coverage (shed/expiry/SLO-miss/
# fault), bounded capture, off-identity, byte-reproducible incidents,
# and telemetry-window bracketing.
cargo test -p tsm-core --test flight -q
cargo test -p tsm-fault -q
cargo test -p tsm-link -q
# Fast bench smoke: one sample of the canonical workload plus the small
# end of the scaling curve, with bit-identity and trace-identity asserted
# at every point. Writes no files, so it cannot clobber BENCH_cosim.json.
cargo run --release -p tsm-bench --bin repro bench-cosim-smoke
# Fast serving smoke: a small load×window sweep with certification on
# every launch, overload backpressure, bit-reproducibility, and a
# multi-model alternation that must report residency-cache hits.
# Writes no files.
cargo run --release -p tsm-bench --bin repro serve-smoke
# Fast residency smoke: the cache-thrash scenario at warm/thrash/single
# budgets with exact hit-rate and warm-start-tier assertions. Writes no
# files.
cargo run --release -p tsm-bench --bin repro residency-smoke
# Fast telemetry smoke: windowed sampling must reproduce byte-for-byte
# from its seed and, when off, be bit-identical to the pre-feature
# event sequences and reports. Writes no files.
cargo run --release -p tsm-bench --bin repro telemetry-smoke
# Fast attribution smoke: a fault-injected serve whose every breakdown
# must sum exactly to its latency, with byte-reproducible incident
# capture and the off-is-off identity for both features. Writes no files.
cargo run --release -p tsm-bench --bin repro attribution-smoke
# Plan compile is pinned byte for byte: golden digests of two compiled
# plans, then the outside-in benchmark's own tests and one pass of each
# co-simulation and serving workload. Each run exits 1 if its seed-1
# result digest differs from the pinned one, so a routing, reservation or
# serving-loop change fails the gate, not only the benchmark pipeline.
cargo test -p tsm-core --test plan_golden -q
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload cosim-16 --seconds 0
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload cosim-10440 --seconds 0
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload serve-steady --seconds 0
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload serve-churn --seconds 0
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
# Rustdoc is part of the contract: broken intra-doc links and bad doc
# syntax fail the gate, same as clippy.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
