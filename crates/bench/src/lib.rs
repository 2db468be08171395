//! Figure/table regeneration harness.
//!
//! Every quantitative table and figure of the paper's evaluation has a
//! function in [`figures`] that produces its data series from the
//! simulation stack. The `repro` binary prints them; the Criterion
//! benches in `benches/` measure the cost of regenerating each one (and
//! print the series once per run, so `cargo bench` leaves a full
//! paper-vs-measured record in its log).

#![forbid(unsafe_code)]

pub mod ablations;
pub mod attribution_bench;
pub mod cosim_bench;
pub mod figures;
pub mod profile_cli;
pub mod residency_bench;
pub mod serving_bench;
