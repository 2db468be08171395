//! Prints the regenerated data for every table and figure of the paper.
//! The `bench-cosim` section also writes the simulated record
//! `BENCH_cosim.json`; no other section writes it.
//!
//! ```sh
//! cargo run --release -p tsm-bench --bin repro            # everything
//! cargo run --release -p tsm-bench --bin repro fig16 fig17
//! ```

use tsm::trace::JsonWriter;
use tsm_bench::attribution_bench::{self, AttributionBenchResult};
use tsm_bench::cosim_bench::{self, CosimBenchResult};
use tsm_bench::figures;
use tsm_bench::residency_bench::{self, ResidencyBenchResult};
use tsm_bench::serving_bench::{self, ServingBenchResult, TelemetryBenchResult};

/// The canonical co-simulation workload plus the full scaling curve
/// (16 → 72 → 288 → 10,440 chips), with every identity asserted.
fn cosim() -> CosimBenchResult {
    let mut result = cosim_bench::measure();
    result.scaling = cosim_bench::measure_scaling(usize::MAX);
    assert!(
        result.bit_identical,
        "engines diverged on the canonical workload"
    );
    assert!(
        result.fault_bit_identical,
        "a recovered faulty invocation diverged from the fault-free digests"
    );
    assert!(
        result.profile_certified,
        "the fault-free canonical workload must certify"
    );
    for p in &result.scaling {
        assert!(p.bit_identical, "{} chips: reports diverged", p.chips);
        assert!(p.trace_identical, "{} chips: traces diverged", p.chips);
    }
    result
}

/// The serving sweep over BERT-Large: offered load × batch window with
/// certification on every launch.
fn serving() -> ServingBenchResult {
    let result = serving_bench::measure_serving(24, 120, 7);
    assert!(
        result.reproducible,
        "serving sweep must reproduce from its seed"
    );
    result
}

/// 3 BERT models round-robin under warm, thrash, and single-entry plan
/// budgets.
fn residency() -> ResidencyBenchResult {
    let result = residency_bench::measure_residency(3, 8, 11);
    assert!(
        result.warm.hit_rate >= result.expected_warm_hit_rate,
        "warm budget must reach the (N-K)/N hit rate"
    );
    assert!(
        result.reproducible,
        "residency bench must reproduce from its seed"
    );
    result
}

/// A two-tenant serve run with windowed sampling on: per-tenant SLO
/// series and link/chip heatmaps.
fn telemetry() -> TelemetryBenchResult {
    let result = serving_bench::measure_telemetry(8, 24, 7);
    assert!(
        result.reproducible,
        "telemetry must reproduce byte-for-byte from its seed"
    );
    assert!(
        result.off_identical,
        "sampling off must be bit-identical to sampling on minus telemetry"
    );
    result
}

/// A fault-injected serve run with causal latency breakdowns on every
/// request and the flight recorder armed.
fn attribution() -> AttributionBenchResult {
    let result = attribution_bench::measure_attribution(8, 20, 7);
    assert!(
        result.sums_exact,
        "every breakdown must sum exactly to its latency"
    );
    assert!(
        result.reproducible,
        "attribution must reproduce byte-for-byte from its seed"
    );
    result
}

/// Measures every block and writes `BENCH_cosim.json` (current directory)
/// in one pass: the co-simulation record and scaling curve, then the
/// serving, residency, telemetry and attribution blocks. Every field is
/// simulated, so the file is a pure function of the code.
fn emit_bench_cosim() -> Vec<String> {
    let cosim = cosim();
    let mut w = JsonWriter::pretty();
    w.begin_object();
    cosim.write_fields(&mut w);
    serving().write_json(w.key("serving"));
    residency().write_json(w.key("residency"));
    telemetry().write_json(w.key("telemetry"));
    attribution().write_json(w.key("attribution"));
    w.end_object();
    let mut record = w.finish();
    record.push('\n');
    std::fs::write("BENCH_cosim.json", record).expect("write BENCH_cosim.json");
    let mut out = cosim_bench::lines_for(&cosim);
    out.push("wrote BENCH_cosim.json".to_string());
    out
}

/// Renders every incident the fault-injected serve captured — the
/// flight recorder's bounded deviant/fault/shed/expiry/SLO snapshots —
/// in firing order.
fn emit_incidents() -> Vec<String> {
    let result = attribution_bench::measure_attribution(4, 12, 9);
    assert!(
        !result.incidents.is_empty(),
        "the hostile serve must capture at least one incident"
    );
    assert!(
        result.reproducible,
        "incidents must reproduce byte-for-byte from their seed"
    );
    attribution_bench::incident_lines(&result)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    type Section<'a> = (&'a str, &'a str, Box<dyn Fn() -> Vec<String>>);
    let sections: Vec<Section> = vec![
        (
            "abstract",
            "Abstract claims",
            Box::new(figures::abstract_claims),
        ),
        (
            "fig2",
            "Fig 2 — global bandwidth profile per TSP",
            Box::new(figures::fig2),
        ),
        (
            "table2",
            "Table 2 — HAC link-latency characterization (100K iters)",
            Box::new(|| figures::table2(100_000)),
        ),
        (
            "fig7",
            "Fig 7 — HAC alignment convergence",
            Box::new(figures::fig7),
        ),
        (
            "fig9",
            "Fig 9 — push vs pull communication model",
            Box::new(figures::fig9),
        ),
        (
            "fig10",
            "Fig 10 — non-minimal routing benefit",
            Box::new(figures::fig10),
        ),
        (
            "fig11",
            "Fig 11 — wire-format efficiency",
            Box::new(figures::fig11),
        ),
        (
            "fig13",
            "Fig 13 — GEMM utilization, TSP vs A100",
            Box::new(|| figures::fig13(59)),
        ),
        (
            "fig14",
            "Fig 14 — distributed matmul scaling",
            Box::new(figures::fig14),
        ),
        (
            "fig15",
            "Fig 15 — cluster GEMM TFLOPs",
            Box::new(figures::fig15),
        ),
        (
            "fig16",
            "Fig 16 — 8-way all-reduce bandwidth",
            Box::new(figures::fig16),
        ),
        (
            "fig17",
            "Fig 17 — BERT-Large latency distribution (24,240 runs)",
            Box::new(|| figures::fig17(24_240)),
        ),
        (
            "fig18",
            "Fig 18 — BERT encoder scaling",
            Box::new(figures::fig18),
        ),
        (
            "fig19",
            "Fig 19 — Cholesky factorization",
            Box::new(figures::fig19),
        ),
        (
            "fig20",
            "Fig 20 — compiler optimization breakdown",
            Box::new(figures::fig20),
        ),
        (
            "sec56",
            "§5.6 — all-reduce pipelined latency",
            Box::new(figures::sec56),
        ),
        (
            "ablate-local-group",
            "Ablation — mesh vs torus local group",
            Box::new(tsm_bench::ablations::local_group),
        ),
        (
            "ablate-spreading",
            "Ablation — minimal vs spread routing",
            Box::new(tsm_bench::ablations::spreading),
        ),
        (
            "ablate-determinism",
            "Ablation — SSN vs dynamic routing",
            Box::new(tsm_bench::ablations::routing_determinism),
        ),
        (
            "ablate-fec",
            "Ablation — FEC vs link-layer retry",
            Box::new(tsm_bench::ablations::fec_vs_retry),
        ),
        (
            "ext-training",
            "Extension — data-parallel training weak scaling",
            Box::new(figures::ext_training),
        ),
        (
            "ext-lstm",
            "Extension — LSTM batch-1 regime",
            Box::new(figures::ext_lstm),
        ),
        (
            "bench-cosim",
            "Bench — simulated co-simulation, serving, residency, telemetry and attribution record (writes BENCH_cosim.json)",
            Box::new(emit_bench_cosim),
        ),
        (
            "profile",
            "Profile — plan-vs-actual conformance of a datapath launch (writes trace_profile.trace.json)",
            Box::new(tsm_bench::profile_cli::lines),
        ),
        (
            "serve",
            "Serve — BERT tail latency vs offered load × batch window",
            Box::new(|| serving_bench::lines_for(&serving())),
        ),
        (
            "telemetry",
            "Telemetry — windowed SLO series + utilization heatmaps",
            Box::new(|| serving_bench::telemetry_lines(&telemetry())),
        ),
        (
            "attribution",
            "Attribution — causal latency breakdown + flight recorder",
            Box::new(|| attribution_bench::attribution_lines(&attribution())),
        ),
        (
            "incidents",
            "Incidents — render the flight recorder's captured incident reports",
            Box::new(emit_incidents),
        ),
        (
            "residency",
            "Residency — multi-model plan-cache thrash",
            Box::new(|| residency_bench::lines_for(&residency())),
        ),
    ];

    let mut matched = false;
    for (key, title, f) in &sections {
        if want(key) {
            matched = true;
            println!("== {title} ==");
            for line in f() {
                println!("{line}");
            }
            println!();
        }
    }
    if !matched {
        eprintln!("unknown figure id; known ids:");
        for (key, title, _) in &sections {
            eprintln!("  {key:<9} {title}");
        }
        std::process::exit(1);
    }
}
