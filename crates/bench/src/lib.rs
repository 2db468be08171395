//! Figure/table regeneration and the simulated bench record.
//!
//! Every quantitative table and figure of the paper's evaluation has a
//! function in [`figures`] that produces its data series from the
//! simulation stack; the `repro` binary prints them. `repro bench-cosim`
//! also writes `BENCH_cosim.json`: the co-simulation record and scaling
//! curve ([`cosim_bench`]), then the serving, residency, telemetry and
//! attribution blocks ([`serving_bench`], [`residency_bench`],
//! [`attribution_bench`]). Every field of it is simulated, so the file is
//! a pure function of the code. Host time is measured by the outside-in
//! benchmark under `benchmark/`, not here.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod attribution_bench;
pub mod cosim_bench;
pub mod figures;
pub mod profile_cli;
pub mod residency_bench;
pub mod serving_bench;

/// Renders one block on its own, for the unit tests; the record nests
/// each block under its own top-level key.
#[cfg(test)]
pub(crate) fn render(write: impl FnOnce(&mut tsm::trace::JsonWriter)) -> String {
    let mut w = tsm::trace::JsonWriter::pretty();
    write(&mut w);
    w.finish()
}
