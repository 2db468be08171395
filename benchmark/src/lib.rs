//! Outside-in benchmark of the `tsm` simulator.
//!
//! Four workloads, each run in its own process through the `tsm` facade's
//! public API only:
//!
//! - `cosim-16` — warm `PlanExecutor::execute` calls on the canonical
//!   2-node, 16-transfer system: per-call fixed cost dominates.
//! - `cosim-10440` — the same on the 145-rack dragonfly: per-chip work and
//!   memory dominate, and set-up carries plan compile at scale.
//! - `serve-steady` — BERT-Large served from a warm plan cache with every
//!   batch certified: the residency read path.
//! - `serve-churn` — three BERT depths under a zero plan budget over a
//!   marginal fabric with every observer on: the residency write path.
//!
//! An untraced run ([`RunConfig::traced`] off) reports the end-to-end
//! metrics of [`report::END_TO_END`]; a traced run wraps each call into a
//! layer in a host-time span ([`spans`]) and reports
//! [`report::PER_LAYER`]. Every op's output is checked; simulated results
//! are digested, and at the default seed the digest must equal the pinned
//! one ([`pinned_digest`]).

pub mod cosim;
pub mod report;
pub mod serve;
pub mod spans;
pub mod stats;

use report::MetricSet;
use spans::Recorder;
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Warm executes on the 16-chip canonical system.
    Cosim16,
    /// Warm executes on the 10,440-chip dragonfly.
    Cosim10440,
    /// A long-lived server on a warm plan cache, certifying every batch.
    ServeSteady,
    /// Fresh servers with a zero plan budget on a marginal fabric.
    ServeChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Cosim16,
        Workload::Cosim10440,
        Workload::ServeSteady,
        Workload::ServeChurn,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cosim16 => "cosim-16",
            Workload::Cosim10440 => "cosim-10440",
            Workload::ServeSteady => "serve-steady",
            Workload::ServeChurn => "serve-churn",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seed a run uses when none is given; the pinned digests are taken at it.
pub const DEFAULT_SEED: u64 = 1;

/// Seconds a run measures when none is given (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Input sizes: the benchmark's own, or the small ones the tests use
/// (288 chips in place of 10,440; BERT with 4 and 8 encoders over 64-token
/// sequences, batches of at most 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Test sizes.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Host seconds the timed phase runs for, at least one full pass over
    /// the workload's fixed inputs.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end
    /// ones.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct RunResult {
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Ops whose output was wrong or that returned an error.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: MetricSet,
    /// Digest of the simulated results of the workload's fixed inputs.
    pub sim_digest: u64,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// Fixed inputs every run covers (the first `pass` ops).
    pub pass: usize,
    /// The spans of a traced run.
    pub recorder: Option<Recorder>,
}

/// Digest of the simulated results at [`DEFAULT_SEED`] and full scale.
pub fn pinned_digest(workload: Workload) -> u64 {
    match workload {
        Workload::Cosim16 => 0x7c2a_64ec_2eb1_54d7,
        Workload::Cosim10440 => 0x74e5_5945_7f58_2f4b,
        Workload::ServeSteady => 0x6766_3d98_03ee_8c86,
        Workload::ServeChurn => 0xc9d7_3b30_31c1_98e6,
    }
}

impl RunResult {
    /// Whether the simulated results match the pinned digest; `None` when
    /// the run is not at the default seed and full scale.
    pub fn pin_matches(&self, cfg: &RunConfig) -> Option<bool> {
        (cfg.scale == Scale::Full && cfg.seed == DEFAULT_SEED)
            .then(|| self.sim_digest == pinned_digest(cfg.workload))
    }
}

/// Runs one workload. `Err` means set-up itself failed.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    match cfg.workload {
        Workload::Cosim16 | Workload::Cosim10440 => cosim::run(cfg),
        Workload::ServeSteady | Workload::ServeChurn => serve::run(cfg),
    }
}

/// Self times, in ns, of every span named `name`.
pub(crate) fn layer_ns(rec: &Recorder, name: &str) -> Vec<f64> {
    rec.spans()
        .iter()
        .zip(spans::self_times(rec.spans()))
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64)
        .collect()
}

/// Op accounting of a timed phase.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) failures: Vec<String>,
}

impl Tally {
    /// Counts one op, failed unless `ok`.
    pub(crate) fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// Counts one op from its error list: failed when any check failed.
    pub(crate) fn op_checks(&mut self, op: usize, errors: Vec<String>) {
        let ok = errors.is_empty();
        self.op(ok, || format!("op {op}: {}", errors.join("; ")));
    }
}

/// The timed phase's stopping rule: run the first `pass` ops, then keep
/// going until `seconds` have passed.
pub(crate) struct Window {
    start: Instant,
    seconds: f64,
    pass: usize,
}

impl Window {
    pub(crate) fn new(seconds: f64, pass: usize) -> Window {
        Window {
            start: Instant::now(),
            seconds,
            pass,
        }
    }

    pub(crate) fn more(&self, done: usize) -> bool {
        done < self.pass || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Runs `op` untimed for a second at full scale before the timed phase,
/// so that lazy set-up, caches and the host's clock settle first.
pub(crate) fn warm_up(
    scale: Scale,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    if scale == Scale::Full {
        let t = Instant::now();
        let mut i = 0;
        while t.elapsed().as_secs_f64() < 1.0 {
            op(i)?;
            i += 1;
        }
    }
    Ok(())
}

/// Runs `setup` repeatedly — at least three times and for at least one
/// second (at most 2,000 times) at full scale, once at smoke scale — and
/// returns the last result with every repetition's host seconds. Earlier
/// results are dropped before the next repetition starts.
pub(crate) fn repeat_setup<T>(
    scale: Scale,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let (min_reps, min_secs, max_reps) = match scale {
        Scale::Full => (3, 1.0, 2000),
        Scale::Smoke => (1, 0.0, 1),
    };
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < min_reps || (secs.iter().sum::<f64>() < min_secs && secs.len() < max_reps) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one repetition"), secs))
}
