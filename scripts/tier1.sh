#!/usr/bin/env bash
# Tier-1 gate: everything must build, every test must pass, clippy must be
# clean at -D warnings. Run from the repo root.
#
# Offline environments: the workspace's external-looking deps (rand and
# proptest) resolve to the in-repo crates under stubs/ via
# [patch.crates-io] in the root Cargo.toml, and the benchmark's `serde`
# patch to stubs/serde, so no network or vendored registry is needed —
# `cargo build --offline` just works.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
# Every test suite of the workspace runs once, in this one invocation; no
# suite is re-run by name. The contracts they hold, suite by suite:
#
# - tsm-core `plan_reuse`: the compile-once / execute-many contract (plan
#   reuse, payload isolation, the plan JSON round trip).
# - tsm-core `pool_determinism`: the parallel engine, one job per chip on
#   at most one std::thread::scope per execute: serial≡parallel
#   bit-identity and trace identity across randomized workloads and worker
#   counts, a different width passed on every call to one executor,
#   chip-phase errors that must give the serial error and trace at every
#   width although deeper chips run after the failing one
#   (chip_errors_are_identical_serially_and_at_every_width), plans just
#   under and just at EXEC_GRAIN instructions run at the automatic width
#   and at widths 1-5, clean, at a BER that aborts the attempt, and with a
#   chip off schedule in the first shard and in the last (an edited plan
#   document, loaded), each giving the serial report or error and trace
#   (plans_either_side_of_the_grain_match_serial_at_every_width), and
#   width resolution: an explicit per-call width is used as given (zero
#   clamped to 1), else a plan below the grain runs on one thread, else
#   TSM_THREADS, else the detected parallelism
#   (thread_resolution_precedence).
# - tsm-core `fault_path`: datapath BER injection, FEC bit-for-bit
#   verification, and the replay/blame/failover recovery loop. Clean
#   deliveries bind without a packet: per-link FEC tallies must still sum
#   to the plan's deliveries (fec_tallies_count_every_delivery_once_per_link),
#   and BER 0 must report what execute reports
#   (zero_ber_fault_mode_reports_what_execute_reports). Out-of-range BERs
#   and targeted flips past the payload's bits are typed errors, never
#   panics (out_of_range_link_rates_are_typed_errors,
#   out_of_range_targeted_flips_are_typed_errors,
#   out_of_range_runtime_rates_are_refused_at_admission).
# - tsm-trace, and tsm-core `trace_identity` and `trace_fault`: the trace
#   crate itself (every event kind's JSON bytes are pinned in
#   `json_shape`), the serial≡parallel trace-identity contract, and the
#   fault-path timeline assertions.
# - tsm-core `profile_conformance`: the plan-vs-actual conformance
#   invariant: fault-free runs certify with zero skew (executor and full
#   launch), replays itemize deterministic skew, lossy traces are refused.
#   The profiler is also the oracle for the serving loop's verdicts: every
#   batch of certified serves over clean, replaying and failing-over
#   fabrics is relaunched on a twin runtime and profiled, and a clean
#   launch past 2^18 trace events must certify.
# - tsm-core `serve_identity` and `serving_queue`: the serving runtime:
#   launch-vs-serve-of-one bit/trace identity (both exec modes, fault-free
#   and replay paths), WorkQueue total-order proptests, and batch-width
#   independence of serving outcomes.
# - tsm-core `serve_golden`: golden pins of Server::serve with every
#   observer on (clean and marginal fabric): the uncertified report and
#   launch trace must match the pinned digests byte for byte, and the
#   certified run must be the uncertified one plus the verdicts
#   (Some(attempts == 1)) and one Deviant incident per batch that did not
#   certify. The one legitimate report re-pin is the residency layer's
#   resident_bytes, a size_of estimate that a plan type's layout moves
#   (the instruction record's included); the launch-trace pins never move
#   for it.
# - tsm-core `residency`: the plan-residency layer: multi-model reuse,
#   budget-0 single-entry equivalence, pre-residency trace-shape pinning,
#   failover epoch drops, shared-vs-private payload identity, the export
#   of the resident set (each datapath plan once, ascending by key, as its
#   own to_json wrote it and as compile_plan gives it), and the
#   LRU-vs-reference proptest.
# - tsm-core `telemetry`: the windowed telemetry layer: launch/serve
#   off-identity (sampling off is bit-identical to pre-feature behaviour),
#   heatmaps that are a fold of the executor's trace (equal, window by
#   window, to a fold of a lossless ring's Delivery and ChipExec events,
#   clean and failing over), SLO-series accounting, JSON
#   bit-reproducibility, hostile-label escaping through the Chrome
#   exporter and the telemetry JSON, and no telemetry leak between calls
#   on one runtime (samples live and die with their launch, a failed
#   one's included).
# - tsm-core `attribution`: the causal attribution layer: every served
#   request's stage breakdown sums exactly to its latency (clean,
#   replaying, and certified paths), aggregation is the exact fold of the
#   breakdowns, off-identity holds, and a rerun from the seed reproduces
#   the report, every breakdown included.
# - tsm-core `flight`: the incident flight recorder: trigger coverage
#   (shed/expiry/SLO-miss/fault), bounded capture, off-identity,
#   byte-reproducible incidents, and telemetry-window bracketing. Nothing
#   reads an incident back; its unit tests check that each document is
#   one well-formed value that embeds its trace tail and telemetry
#   verbatim.
# - tsm-core `alloc_gate`: a counting global allocator, alone in its
#   binary: dropping the 288- and the 1,152-chip half-stride plans frees
#   the same number of heap blocks, and a warm serial execute of each
#   allocates the same number of times, so neither a plan nor an execute
#   allocates per chip.
# - tsm-fault, and tsm-link, whose draw_takes_what_transmit_takes checks
#   that Channel::draw takes exactly the draws transmit takes, so a clean
#   decision made from it agrees with transmit's.
# - tsm-chip: the chip executor. Its busy model is what compile books, and
#   a C2C port past its 16 modelled engines is a typed ExecError, never an
#   index panic (ports_beyond_the_modelled_engines_are_errors): part of
#   the contract that no hostile plan document panics the executor.
# - tsm-topology's `route` unit tests: route errors are part of compile's
#   error-order contract: an endpoint outside the topology is a typed
#   NoRoute, never an index panic
#   (endpoints_outside_the_topology_have_no_route), next to the
#   bidirectional search's forward-BFS oracle.
# - tsm-core's `cosim::plan` unit tests: the plan compiler. The train
#   table's closed-form conflict vs the sorted-window table it replaced,
#   on random train pairs (closed_form_matches_the_window_scan) and on
#   random tables of interleaved trains
#   (train_table_matches_the_window_table); each transfer's train list vs
#   a per-vector oracle on random dragonfly paths
#   (trains_hold_the_per_vector_windows); the jumping chip-unit search on
#   the train table vs the one-step-at-a-time search on the window table:
#   same schedule for every next transfer of random prefixes, no more
#   trials, the short-train sets' trial totals unchanged
#   (jump_search_finds_what_the_bump_search_finds); what a compile books
#   is exactly what its programs hold under ChipSim's busy model
#   (booked_windows_are_the_lowered_windows); assembly's one merge per
#   chip vs the push-then-stable-sort lowering, merge order included
#   (merged_lowering_is_the_sorted_lowering); one booked record per train
#   whatever the transfer length
#   (booked_records_do_not_grow_with_transfer_length); plans equal at
#   widths 1, 2, 3 and 7 (plans_do_not_depend_on_the_width), route errors
#   surfacing in transfer order, a TSP outside the topology included,
#   through compile_plan and run_transfers
#   (compile_errors_keep_transfer_order), the grouping helper of the route
#   stage, shards ranked by work that split it evenly at widths 2-8
#   (shards_split_the_work_evenly), plan documents that parse to their
#   plan and write back to themselves byte for byte, the merge order,
#   shards, destination checks and instruction count derived on load as
#   compile derives them (plan_documents_round_trip), and, refused at
#   parse with an error naming what is wrong: a program string of odd
#   length, with a byte that is not lowercase hex or a character wider
#   than a byte, that is not whole 16-byte records, or whose records name
#   an unknown opcode, a stream of 32 or more, or do not re-assemble to
#   their own bytes (a Read direction byte of 2, a nonzero unused byte)
#   (from_json_refuses_hostile_programs); a chip depth at or past the chip
#   count, and plan JSON that indexes outside itself, lists its chips out
#   of TSP order, lists its program or manifest out of order, names an
#   SRAM region that wraps past offset 65535, or a preload offset too wide
#   for its field, each before anything is derived from it
#   (from_json_refuses_plans_that_index_outside_themselves); a transfer
#   whose destination chip does not receive each of its vectors once, a
#   destination with no chip included
#   (from_json_refuses_a_transfer_its_destination_does_not_receive). Then
#   a plan document that sends on port 40 executing to a chip error, and
#   4,000 seeded truncations and byte edits of a two-node plan's
#   document, after one whose delivery names link 999999: each parses to
#   a plan or an error, and a plan's planned_timeline is a timeline or
#   CosimError::UnknownLink and its executes at widths 1 and 2 a report
#   or an error, never a panic (hostile_plan_documents_are_typed_errors).
# - tsm-core's `cosim` unit tests: among them, a plan whose public shapes
#   were shortened, or lost vectors, after compile executes to a typed
#   payload error at widths 1-3, never an index panic
#   (edited_shapes_are_payload_errors_at_every_width).
# - tsm-core's `runtime` unit tests: the payload pool synthesizes each
#   (transfer, vector) once per runtime and every residency entry binds
#   the same handles.
# - tsm-core's `cosim::exec` unit tests: an executor holds one chip
#   simulator per worker, min(width, chips) of them, grown to the widest
#   execute and never with the chip count
#   (an_executor_holds_one_simulator_per_worker), and a worker's reset
#   leaves the next chip's job nothing of the previous one: a chip whose
#   program is emptied in its plan document is bound and checked but runs
#   nothing, and must not find its predecessor's SRAM
#   (a_chip_job_sees_nothing_of_the_previous_job).
# - tsm-isa: every instruction's binary encoding round-trips exactly, a
#   RUNTIME_DESKEW target of u32::MAX included, since the target is the 32
#   bits the instruction word stores (every_instruction_roundtrips,
#   assemble_disassemble_roundtrip), and an unknown opcode or a binary of
#   partial records is a typed error (unknown_opcode_rejected,
#   truncated_binary_rejected). Plan documents carry programs in this
#   binary, so this is their instruction codec.
# - tsm-core `plan_golden`: plan compile is pinned byte for byte on five
#   compiled plans (cosim-16, the 288- and 1,152-chip half-stride plans,
#   the BERT pipeline at batch 1 and at batch 8), and which side of
#   EXEC_GRAIN cosim-16 and the smallest serving plan fall on.
cargo test --workspace -q
# The outside-in benchmark's own tests, then one pass of each
# co-simulation and serving workload. Each run exits 1 if its seed-1
# result digest differs from the pinned one, so a routing, reservation or
# serving-loop change fails the gate, not only the benchmark pipeline.
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload cosim-16 --seconds 0
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload cosim-10440 --seconds 0
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload serve-steady --seconds 0
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload serve-churn --seconds 0
# One traced serve-steady pass: the only run that reads the resident
# plans through the residency export, parses each back and requires
# compile_plan(shapes) to equal it, i.e. that a plan document derives on
# load what compile derived. It exits 1 on any failed check.
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload serve-steady --seconds 0 --trace 1
# BENCH_cosim.json is a golden record: every field is simulated (host time
# is measured by benchmark/ alone), so the file is a pure function of the
# code. Regenerate it at one and at three worker threads and fail on any
# difference from the committed file: a host-dependent field fails on any
# host, the scaling curve's serial≡parallel report and trace checks run at
# two widths, and each scaling point's plan_digest pins its plan, the
# 10,440-chip one included, compiled at both widths. A change that moves a simulated number must commit
# the regenerated file. The residency block's plan bytes are an estimate
# built from `size_of`, so a change to a plan type's layout (the
# instruction record's among them) or a toolchain that changes a type's
# layout moves them too and also calls for a regeneration.
TSM_THREADS=1 cargo run --release -p tsm-bench --bin repro bench-cosim
git diff --exit-code -- BENCH_cosim.json
TSM_THREADS=3 cargo run --release -p tsm-bench --bin repro bench-cosim
git diff --exit-code -- BENCH_cosim.json
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
# Rustdoc is part of the contract: broken intra-doc links and bad doc
# syntax fail the gate, same as clippy.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
