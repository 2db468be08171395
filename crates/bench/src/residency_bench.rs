//! Plan-residency benchmark: the multi-model cache-thrash scenario.
//!
//! K BERT models of different depths round-robin through one
//! [`Server`] in datapath mode, so every request needs a full compiled
//! plan. Three budget variants run the identical offered timeline:
//!
//! - **warm**   — budget = Σ per-model plan bytes: every model stays
//!   resident, so after the K cold compiles every request is a cache
//!   hit (hit rate exactly `(N-K)/N`).
//! - **thrash** — budget = Σ − 1 byte: the LRU victim is always the
//!   model the round-robin needs next, so every request recompiles.
//! - **single** — budget = 0: the pre-residency single-entry cache,
//!   same pathology.
//!
//! The `"residency"` block of `BENCH_cosim.json` records all three.

use tsm::core::runtime::{ExecMode, Runtime, SparePolicy};
use tsm::core::serving::{Request, ServeConfig, ServeReport, Server};
use tsm::core::system::System;
use tsm::trace::{names, JsonWriter};
use tsm::workloads::BertConfig;

/// One budget variant of the round-robin scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidencyVariant {
    /// Variant name: `warm`, `thrash`, or `single`.
    pub name: &'static str,
    /// Plan-cache budget, bytes.
    pub budget_bytes: u64,
    /// Cache hits over the serve run (`residency.hits` delta).
    pub hits: u64,
    /// Cache misses (each one is a full recompile).
    pub misses: u64,
    /// Evictions forced by the budget.
    pub evictions: u64,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
}

/// The full residency benchmark record.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidencyBenchResult {
    /// Model count K.
    pub models: usize,
    /// Round-robin rounds; N = `models × rounds` requests.
    pub rounds: u64,
    /// Requests offered per variant.
    pub requests: u64,
    /// Per-model compiled-plan bytes (ascending), learned from an
    /// unbounded probe run; the warm budget is their sum.
    pub model_bytes: Vec<u64>,
    /// `(N - K) / N` — what the warm variant must achieve.
    pub expected_warm_hit_rate: f64,
    /// Budget = Σ bytes: everything resident.
    pub warm: ResidencyVariant,
    /// Budget = Σ − 1: LRU always evicts the next model needed.
    pub thrash: ResidencyVariant,
    /// Budget = 0: the pre-residency single-entry cache.
    pub single: ResidencyVariant,
    /// Whether rerunning the warm variant reproduced its report bit for
    /// bit.
    pub reproducible: bool,
}

/// Model `m` is a BERT pipeline `4 × (m + 1)` encoders deep over 4 TSPs
/// (the stage balancer needs the depth to split evenly), so every model
/// has a distinct graph fingerprint and plan size.
fn model_graph(m: usize, batch: u32) -> tsm::compiler::graph::Graph {
    BertConfig {
        batch: u64::from(batch),
        ..BertConfig::with_encoders(4 * (m + 1))
    }
    .build_pipeline_graph(4)
}

/// A fresh datapath runtime with the given plan budget.
fn runtime(budget_bytes: u64) -> Runtime {
    Runtime::new(
        System::with_nodes(4).expect("4 nodes"),
        SparePolicy::PerSystem,
    )
    .with_exec_mode(ExecMode::Datapath)
    .with_plan_budget(budget_bytes)
}

/// A server with `models` registered, wrapping `rt`.
fn server(rt: Runtime, models: usize, seed: u64) -> Server {
    let mut s = Server::new(
        rt,
        ServeConfig {
            batch_window: 0,
            max_batch: 1,
            queue_capacity: usize::MAX,
            tenant_quota: usize::MAX,
            seed,
            certify: false,
            telemetry: None,
            attribution: false,
            flight: None,
        },
    );
    for m in 0..models {
        s.add_model(move |b| model_graph(m, b));
    }
    s
}

/// The round-robin offered timeline: request `i` wants model `i mod K`.
fn round_robin(models: usize, rounds: u64) -> Vec<Request> {
    (0..rounds * models as u64)
        .map(|i| Request {
            at: i * 1_000,
            tenant: 0,
            model: (i % models as u64) as u32,
            priority: 0,
            deadline_slack: 1 << 40,
        })
        .collect()
}

/// Serves `offered` under `budget_bytes` and folds the run's residency
/// counters into a [`ResidencyVariant`]. Also returns the report and the
/// finished runtime (whose resident set sizes the budgets).
fn run_variant(
    name: &'static str,
    budget_bytes: u64,
    models: usize,
    offered: &[Request],
    seed: u64,
) -> (ResidencyVariant, ServeReport, Runtime) {
    let mut server = server(runtime(budget_bytes), models, seed);
    let report = server.serve(offered).expect("residency serve run");
    let hits = report.metrics.counter(names::RES_HITS);
    let misses = report.metrics.counter(names::RES_MISSES);
    let variant = ResidencyVariant {
        name,
        budget_bytes,
        hits,
        misses,
        evictions: report.metrics.counter(names::RES_EVICTIONS),
        hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    };
    (variant, report, server.into_runtime())
}

/// Measures the full residency record: the three budget variants over
/// the same round-robin timeline and the reproducibility check.
pub fn measure_residency(models: usize, rounds: u64, seed: u64) -> ResidencyBenchResult {
    let requests = rounds * models as u64;
    let offered = round_robin(models, rounds);

    // Probe: one unbounded pass over each model learns the per-model
    // plan bytes the budgets are expressed in.
    let (_, _, probe_rt) = run_variant("probe", u64::MAX, models, &round_robin(models, 1), seed);
    let mut model_bytes: Vec<u64> = probe_rt
        .residency()
        .resident()
        .iter()
        .map(|r| r.bytes)
        .collect();
    model_bytes.sort_unstable();
    assert_eq!(
        model_bytes.len(),
        models,
        "every model left a resident plan"
    );
    let warm_budget: u64 = model_bytes.iter().sum();

    let (warm, warm_report, _) = run_variant("warm", warm_budget, models, &offered, seed);
    let (thrash, _, _) = run_variant("thrash", warm_budget - 1, models, &offered, seed);
    let (single, _, _) = run_variant("single", 0, models, &offered, seed);

    // Bit-reproducibility: the warm variant, rerun from scratch, must
    // reproduce its entire report.
    let (_, again, _) = run_variant("warm", warm_budget, models, &offered, seed);
    let reproducible = again == warm_report;

    ResidencyBenchResult {
        models,
        rounds,
        requests,
        model_bytes,
        expected_warm_hit_rate: (requests - models as u64) as f64 / requests as f64,
        warm,
        thrash,
        single,
        reproducible,
    }
}

fn variant_fields(w: &mut JsonWriter, v: &ResidencyVariant) {
    w.key(v.name).begin_object();
    w.field_u64("budget_bytes", v.budget_bytes)
        .field_u64("hits", v.hits)
        .field_u64("misses", v.misses)
        .field_u64("evictions", v.evictions)
        .field_raw("hit_rate", &format!("{:.4}", v.hit_rate))
        .end_object();
}

impl ResidencyBenchResult {
    /// Writes the `"residency"` block of `BENCH_cosim.json` as the next
    /// value.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_u64("models", self.models as u64)
            .field_u64("rounds", self.rounds)
            .field_u64("requests", self.requests);
        w.key("model_bytes").begin_array();
        for &b in &self.model_bytes {
            w.u64(b);
        }
        w.end_array();
        w.field_raw(
            "expected_warm_hit_rate",
            &format!("{:.4}", self.expected_warm_hit_rate),
        );
        variant_fields(w, &self.warm);
        variant_fields(w, &self.thrash);
        variant_fields(w, &self.single);
        w.key("reproducible").bool(self.reproducible);
        w.end_object();
    }
}

/// Printable report lines for the `repro` binary.
pub fn lines_for(r: &ResidencyBenchResult) -> Vec<String> {
    let mut out = vec![
        format!(
            "{} BERT models (plan bytes {:?}), {} rounds round-robin = {} requests per variant",
            r.models, r.model_bytes, r.rounds, r.requests
        ),
        format!(
            "expected warm hit rate (N-K)/N = {:.4}",
            r.expected_warm_hit_rate
        ),
    ];
    for v in [&r.warm, &r.thrash, &r.single] {
        out.push(format!(
            "  {:<6} budget {:>8} B: {:>3} hits, {:>3} misses, {:>3} evictions, hit rate {:.4}",
            v.name, v.budget_bytes, v.hits, v.misses, v.evictions, v.hit_rate
        ));
    }
    out.push(format!(
        "warm variant bit-reproducible from seed: {}",
        r.reproducible
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny end-to-end measure: 2 shallow models, 3 rounds. Asserts the
    /// acceptance shape — warm hit rate is exactly (N-K)/N, both starved
    /// budgets thrash to zero hits, and the warm variant reproduces.
    #[test]
    fn tiny_measure_hits_warm_and_thrashes_starved() {
        let r = measure_residency(2, 3, 11);
        assert_eq!(r.requests, 6);
        assert_eq!(r.model_bytes.len(), 2);
        assert_eq!(r.warm.hits + r.warm.misses, r.requests);
        assert_eq!(r.warm.misses, 2, "one cold compile per model");
        assert!(
            (r.warm.hit_rate - r.expected_warm_hit_rate).abs() < 1e-9,
            "warm hit rate {} != expected {}",
            r.warm.hit_rate,
            r.expected_warm_hit_rate
        );
        assert_eq!(r.warm.evictions, 0, "full budget never evicts");
        assert_eq!(r.thrash.hits, 0, "LRU always evicts the next model");
        assert!(r.thrash.evictions > 0);
        assert_eq!(r.single.hits, 0, "single-entry cache can't alternate");
        assert!(r.reproducible, "warm variant must reproduce bit-for-bit");
        let json = crate::render(|w| r.write_json(w));
        assert!(json.contains("\"warm\""));
        assert!(json.contains("\"thrash\""));
        assert!(json.contains("\"reproducible\": true"));
    }
}
