//! Deterministic multi-tenant serving over one TSM runtime.
//!
//! Two tenants share a 4-stage BERT pipeline: tenant 0 offers a steady
//! low-rate stream at high priority, tenant 1 is quiet until it floods a
//! Poisson burst at lower priority mid-story. The serving frontend
//! batches requests under a window, orders the queue by
//! `(priority, deadline, insertion seq)`, sheds on backpressure, and —
//! because everything runs in seeded virtual time — reproduces the whole
//! story bit-for-bit on every run.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use tsm::core::serving::{Request, ServeConfig, Server};
use tsm::core::{ExecMode, Runtime, SparePolicy};
use tsm::prelude::*;
use tsm::trace::telemetry::series;
use tsm::trace::{sparkline, CycleHistogram, Telemetry, TelemetryConfig};
use tsm::workloads::{merge_arrivals, poisson_arrivals, poisson_arrivals_in};

/// A 4-encoder BERT-shaped pipeline across 4 TSPs; the serving frontend
/// passes the batch size in.
fn bert(batch: u32) -> Graph {
    BertConfig {
        batch: u64::from(batch),
        ..BertConfig::with_encoders(4)
    }
    .build_pipeline_graph(4)
}

/// ASCII rendering of a latency histogram: one row per occupied
/// power-of-two bucket.
fn render(h: &CycleHistogram) -> Vec<String> {
    let peak = h.buckets.iter().copied().max().unwrap_or(1).max(1);
    h.buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| {
            let (lo, hi) = CycleHistogram::bucket_bounds(i);
            let bar = "#".repeat((n * 40).div_ceil(peak) as usize);
            format!("    [{lo:>9}, {hi:>9}) {n:>4} {bar}")
        })
        .collect()
}

/// ASCII sparkline dashboard over the run's windowed telemetry:
/// per-tenant throughput and whole-run SLO attainment, the queue-depth
/// gauge, and the per-link / per-chip utilization heatmaps.
fn dashboard(tel: &Telemetry, server: &Server, tenants: &[tsm::core::serving::TenantStats]) {
    let last = tel.last_window().unwrap_or(0);
    println!();
    println!(
        "telemetry: {} windows of {} cycles each",
        last + 1,
        tel.window
    );
    for t in tenants {
        let label = server.tenant_label(t.tenant);
        let tp = tel
            .get(series::SERVE_THROUGHPUT, &label)
            .map(|s| s.dense(0, last))
            .unwrap_or_default();
        let met = tel.get(series::SLO_MET, &label).map_or(0, |s| s.total());
        let missed = tel.get(series::SLO_MISSED, &label).map_or(0, |s| s.total());
        let slo = if met + missed == 0 {
            1.0
        } else {
            met as f64 / (met + missed) as f64
        };
        println!(
            "  {label:>8} throughput |{}| slo {:5.1}%",
            sparkline(&tp),
            slo * 100.0
        );
    }
    if let Some(depth) = tel.get(series::SERVE_QUEUE_DEPTH, "") {
        println!(
            "  {:>8} gauge      |{}| peak {}",
            "queue",
            sparkline(&depth.dense(0, last)),
            depth.total()
        );
    }
    for name in [series::LINK_DELIVERIES, series::CHIP_BUSY] {
        for label in tel.labels(name) {
            let s = tel.get(name, label).expect("listed label");
            println!(
                "  {label:>8} {:<10} |{}| total {}",
                name.split_once('.').map_or(name, |(_, tail)| tail),
                sparkline(&s.dense(0, last)),
                s.total()
            );
        }
    }
}

fn main() {
    // Calibrate the service time so the offered rates mean something.
    let mut probe = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
        .with_exec_mode(ExecMode::Datapath);
    let service = probe.launch(&bert(1), 0).unwrap().timeline_cycles;
    let horizon = service * 40;

    // Tenant 0: steady 0.3μ at priority 0 over the whole horizon.
    // Tenant 1: a 2μ Poisson burst at priority 1 over the middle third.
    let steady = poisson_arrivals(11, 0.3 / service as f64, horizon, 0, 0, 4 * service);
    let burst = poisson_arrivals_in(
        12,
        2.0 / service as f64,
        horizon / 3,
        2 * horizon / 3,
        1,
        1,
        4 * service,
    );
    let offered: Vec<Request> = merge_arrivals(&[steady, burst])
        .iter()
        .map(|a| Request {
            at: a.at,
            tenant: a.tenant,
            model: 0,
            priority: a.priority,
            deadline_slack: a.deadline_slack,
        })
        .collect();

    let cfg = ServeConfig {
        batch_window: service / 2,
        max_batch: 8,
        queue_capacity: 32,
        tenant_quota: 12, // the burst cannot squeeze tenant 0 out
        seed: 7,
        // Every launch puts its link/chip heatmaps on the serving
        // timeline; certification would only add per-batch verdicts.
        certify: false,
        telemetry: Some(TelemetryConfig {
            window: service / 2,
            slo_permille: 990,
        }),
        // Attribution joins every served request to the stages that
        // consumed its cycles; the breakdowns sum exactly to latency.
        attribution: true,
        flight: None,
    };
    let rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
        .with_exec_mode(ExecMode::Datapath);
    let mut server = Server::new(rt, cfg);
    server.add_model(bert);
    server.name_tenant(0, "steady");
    server.name_tenant(1, "burst");
    let report = server.serve(&offered).expect("serving run");

    println!(
        "service time {} cycles; {} offered over {} cycles — {} served, {} shed, {} batches",
        service,
        report.offered,
        horizon,
        report.served,
        report.shed,
        report.batches.len()
    );
    println!(
        "global latency: p50 {:.0}  p99 {:.0}  p999 {:.0} cycles",
        report.latency.percentile(0.50),
        report.latency.percentile(0.99),
        report.latency.percentile(0.999)
    );

    for t in &report.tenants {
        println!();
        println!(
            "tenant {} — {} offered, {} served, {} shed; p50 {:.0}  p99 {:.0} cycles",
            t.tenant,
            t.offered,
            t.served,
            t.shed,
            t.latency.percentile(0.50),
            t.latency.percentile(0.99)
        );
        for line in render(&t.latency) {
            println!("{line}");
        }
    }

    // The telemetry dashboard: every series below is sampled in virtual
    // time, so it is as reproducible as the report itself.
    let tel = report.telemetry.as_ref().expect("telemetry is on");
    dashboard(tel, &server, &report.tenants);

    // Causal attribution: the three slowest requests, decomposed into
    // the stages that consumed their cycles. The components sum exactly
    // to each latency (verified by the serve run itself).
    let attr = report.attribution.as_ref().expect("attribution is on");
    let mut slowest: Vec<&tsm::trace::LatencyBreakdown> = attr.breakdowns.iter().collect();
    slowest.sort_by_key(|b| std::cmp::Reverse((b.latency(), b.request)));
    println!();
    println!("slowest requests (stage breakdown, cycles):");
    for b in slowest.iter().take(3) {
        let stages: Vec<String> = tsm::trace::Stage::ALL
            .iter()
            .filter_map(|&s| {
                let c = b.component(s);
                (c > 0).then(|| format!("{} {}", s.as_str(), c))
            })
            .collect();
        println!(
            "  req {:>3} ({}) batch {:>2}: {:>8} = {}  [critical: {}]",
            b.request,
            server.tenant_label(b.tenant),
            b.batch,
            b.latency(),
            stages.join(" + "),
            b.critical_stage().as_str()
        );
    }

    // Virtual time means this whole story is a pure function of its
    // seeds: rerun it and the report is bit-identical.
    let rt2 = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
        .with_exec_mode(ExecMode::Datapath);
    let mut again = Server::new(rt2, cfg);
    again.add_model(bert);
    again.name_tenant(0, "steady");
    again.name_tenant(1, "burst");
    assert_eq!(again.serve(&offered).unwrap(), report);
    println!();
    println!("rerun reproduced the report bit-for-bit");
}
