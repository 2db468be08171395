//! Windowed-telemetry invariants, machine-checked end to end:
//!
//! - **Off-identity**: with telemetry disabled, launch and serve produce
//!   event sequences and records bit-identical to a build without the
//!   feature — the only difference an enabled run may introduce is the
//!   `telemetry` field itself.
//! - **Reproducibility**: the same seed reproduces the identical
//!   telemetry, byte for byte through the JSON round trip.
//! - **Heatmap fidelity**: per-link delivery counts and per-chip busy
//!   cycles agree exactly with the trace events of the same run.
//! - **SLO accounting**: per-tenant met+missed partitions the tenant's
//!   terminal requests (served + expired).
//! - **Loss accounting**: under telemetry sampling, the `trace.dropped`
//!   gauge, the sink's counter, and the exporter's warning banner agree —
//!   and sampling itself never drops (it does not go through the sink).
//! - **Escaping**: hostile tenant names survive the JSON and Perfetto
//!   exports via the in-repo escapers.

use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::runtime::{ExecMode, LaunchOutcome, Runtime, SparePolicy};
use tsm_core::serving::{Request, RequestOutcome, ServeConfig, ServeReport, Server};
use tsm_core::system::System;
use tsm_topology::TspId;
use tsm_trace::telemetry::{series, TelemetryConfig};
use tsm_trace::{
    chrome_trace_json_telemetry, names, EventKind, RingSink, TraceEvent, SERVING_LANE,
};

/// Window small enough that a single launch spans several windows.
const TEL: TelemetryConfig = TelemetryConfig {
    window: 4096,
    slo_permille: 990,
};

/// The multi-hop pipeline from the identity suite: compute, a cross-node
/// transfer, dependent compute — so datapath launches move real payloads
/// and emit `Delivery` events for the heatmaps.
fn pipeline() -> Graph {
    let mut g = Graph::new();
    let a = g
        .add(TspId(0), OpKind::Compute { cycles: 10_000 }, vec![])
        .unwrap();
    let t = g
        .add(
            TspId(0),
            OpKind::Transfer {
                to: TspId(15),
                bytes: 32_000,
                allow_nonminimal: true,
            },
            vec![a],
        )
        .unwrap();
    g.add(TspId(15), OpKind::Compute { cycles: 1_000 }, vec![t])
        .unwrap();
    g
}

fn runtime() -> Runtime {
    Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
        .with_exec_mode(ExecMode::Datapath)
}

fn launch_with(tel: Option<TelemetryConfig>) -> (LaunchOutcome, Vec<TraceEvent>) {
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = runtime().with_trace_sink(sink.clone());
    if let Some(cfg) = tel {
        rt.set_telemetry(cfg);
    }
    let out = rt.launch(&pipeline(), 7).unwrap();
    assert_eq!(sink.dropped(), 0);
    (out, sink.sorted_events())
}

#[test]
fn launch_telemetry_off_is_bit_identical_and_on_only_adds_the_field() {
    let (off, ev_off) = launch_with(None);
    let (on, ev_on) = launch_with(Some(TEL));
    assert!(off.telemetry.is_none(), "disabled runs carry no telemetry");
    let t = on.telemetry.clone().expect("enabled runs carry telemetry");
    assert!(!t.is_empty());
    assert_eq!(t.window, TEL.window);
    // Same events, same everything-else: sampling only observes.
    assert_eq!(ev_on, ev_off, "telemetry must not perturb the trace");
    let mut stripped = on.clone();
    stripped.telemetry = None;
    assert_eq!(stripped, off, "outcome differs only in the telemetry field");
}

/// The heatmaps are derived from the same simulation the trace records,
/// so they must agree exactly: total deliveries per run equals the count
/// of `Delivery` events, and total chip-busy cycles equals the summed
/// width of the `ChipExec` spans.
#[test]
fn launch_heatmaps_agree_with_the_trace() {
    let (on, events) = launch_with(Some(TEL));
    let t = on.telemetry.unwrap();

    let traced_deliveries = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Delivery { .. }))
        .count() as u64;
    assert!(traced_deliveries > 0, "the pipeline crosses links");
    let sampled_deliveries: u64 = t
        .labels(series::LINK_DELIVERIES)
        .iter()
        .map(|l| t.get(series::LINK_DELIVERIES, l).unwrap().total())
        .sum();
    assert_eq!(sampled_deliveries, traced_deliveries);

    let traced_busy: u64 = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ChipExec { .. }))
        .map(|e| e.dur)
        .sum();
    let sampled_busy: u64 = t
        .labels(series::CHIP_BUSY)
        .iter()
        .map(|l| t.get(series::CHIP_BUSY, l).unwrap().total())
        .sum();
    assert_eq!(sampled_busy, traced_busy);
    assert!(
        t.labels(series::CHIP_BUSY).len() >= 2,
        "both endpoint chips were busy"
    );
}

/// A serving workload with every terminal outcome represented: tenant 0
/// is comfortable, tenant 1 has deadlines tight enough that some served
/// requests miss their SLO, and one request expires unlaunched.
fn offered_mixed() -> Vec<Request> {
    let mut offered = Vec::new();
    for i in 0..4u64 {
        offered.push(Request {
            at: i * 200,
            tenant: 0,
            model: 0,
            priority: 1,
            deadline_slack: 10_000_000,
        });
        offered.push(Request {
            at: i * 200 + 50,
            tenant: 1,
            model: 0,
            priority: 1,
            deadline_slack: 5_000, // tighter than a batch's service time
        });
    }
    // Arrives while the server is busy and dies in the queue.
    offered.push(Request {
        at: 1_000,
        tenant: 1,
        model: 0,
        priority: 2,
        deadline_slack: 2_000,
    });
    offered
}

fn serve_with(tel: Option<TelemetryConfig>) -> (ServeReport, Vec<TraceEvent>) {
    let (report, sink) = serve_traced(tel);
    (report, sink.sorted_events())
}

/// [`serve_with`], handing back the sink so callers can read events in
/// emission order.
fn serve_traced(tel: Option<TelemetryConfig>) -> (ServeReport, Arc<RingSink>) {
    let sink = Arc::new(RingSink::new(1 << 16));
    let rt = runtime().with_trace_sink(sink.clone());
    let cfg = ServeConfig {
        batch_window: 500,
        max_batch: 4,
        seed: 42,
        telemetry: tel,
        ..ServeConfig::default()
    };
    let mut server = Server::new(rt, cfg);
    server.add_model(|batch| {
        let mut g = pipeline();
        g.add(
            TspId(0),
            OpKind::Compute {
                cycles: 1_000 * batch as u64,
            },
            vec![],
        )
        .unwrap();
        g
    });
    let report = server.serve(&offered_mixed()).unwrap();
    assert_eq!(sink.dropped(), 0);
    (report, sink)
}

#[test]
fn serve_telemetry_off_is_bit_identical_and_on_only_adds_the_field() {
    let (off, ev_off) = serve_with(None);
    let (on, ev_on) = serve_with(Some(TEL));
    assert!(off.telemetry.is_none());
    assert!(on.telemetry.is_some());
    assert_eq!(ev_on, ev_off, "telemetry must not perturb the serve trace");
    // Strip every telemetry field (the report's and each batch
    // outcome's): what remains must be bit-identical to the off run.
    let mut stripped = on.clone();
    stripped.telemetry = None;
    for b in &mut stripped.batches {
        b.outcome.telemetry = None;
    }
    assert_eq!(stripped, off);
}

#[test]
fn serve_telemetry_is_bit_reproducible_through_json() {
    let (a, _) = serve_with(Some(TEL));
    let (b, _) = serve_with(Some(TEL));
    assert_eq!(a, b, "same seed, same report");
    let ta = a.telemetry.unwrap();
    let tb = b.telemetry.unwrap();
    assert_eq!(ta.to_json(), tb.to_json(), "byte-identical telemetry JSON");
    let round = tsm_trace::Telemetry::from_json(&ta.to_json()).unwrap();
    assert_eq!(round, ta, "JSON round trip is lossless");
}

#[test]
fn slo_series_partition_terminal_requests_per_tenant() {
    let (report, _) = serve_with(Some(TEL));
    let t = report.telemetry.as_ref().unwrap();
    assert!(report.expired > 0, "the workload exercises expiry");
    assert!(report.served > 0);

    for ten in &report.tenants {
        let label = format!("tenant{}", ten.tenant);
        let met = t.get(series::SLO_MET, &label).map_or(0, |s| s.total());
        let missed = t.get(series::SLO_MISSED, &label).map_or(0, |s| s.total());
        assert_eq!(
            met + missed,
            ten.served + ten.expired,
            "tenant {} SLO series must partition served+expired",
            ten.tenant
        );
        let throughput = t
            .get(series::SERVE_THROUGHPUT, &label)
            .map_or(0, |s| s.total());
        assert_eq!(throughput, ten.served);
    }
    // Tenant 1's tight deadlines miss; tenant 0's never do.
    assert!(t.get(series::SLO_MISSED, "tenant1").is_some());
    assert!(t.get(series::SLO_MISSED, "tenant0").is_none());
    // Attainment and burn rate are consistent views over the same series:
    // burn = miss_fraction / error_budget, budget = 1% at 990 permille.
    for (win, att) in t.attainment("tenant1") {
        assert!((0.0..=1.0).contains(&att));
        let burn = t
            .burn_rate("tenant1")
            .iter()
            .find(|(w, _)| *w == win)
            .map(|(_, b)| *b)
            .unwrap();
        assert!((burn - (1.0 - att) / 0.01).abs() < 1e-9);
    }
    // The queue-depth gauge saw at least the deepest backlog the serve
    // metrics report.
    let depth = t.get(series::SERVE_QUEUE_DEPTH, "").unwrap();
    let peak = depth.points.iter().map(|&(_, v)| v).max().unwrap();
    assert_eq!(
        peak,
        report.metrics.gauge(names::SERVE_QUEUE_DEPTH).unwrap()
    );
}

/// Serving heatmaps are the launches' heatmaps merged onto the serving
/// timeline: totals agree with the per-batch outcomes.
#[test]
fn serve_heatmaps_are_the_merged_launch_heatmaps() {
    let (report, _) = serve_with(Some(TEL));
    let t = report.telemetry.as_ref().unwrap();
    let total = |tel: &tsm_trace::Telemetry, name: &str| -> u64 {
        tel.labels(name)
            .iter()
            .map(|l| tel.get(name, l).unwrap().total())
            .sum()
    };
    let merged_deliveries = total(t, series::LINK_DELIVERIES);
    let batch_deliveries: u64 = report
        .batches
        .iter()
        .map(|b| {
            total(
                b.outcome.telemetry.as_ref().unwrap(),
                series::LINK_DELIVERIES,
            )
        })
        .sum();
    assert!(merged_deliveries > 0);
    assert_eq!(merged_deliveries, batch_deliveries);
    assert_eq!(
        total(t, series::CHIP_BUSY),
        report
            .batches
            .iter()
            .map(|b| total(b.outcome.telemetry.as_ref().unwrap(), series::CHIP_BUSY))
            .sum::<u64>()
    );
}

/// Satellite: under telemetry sampling, trace-loss accounting stays
/// coherent — the `trace.dropped` gauge equals the sink's counter, the
/// Perfetto banner reports the same number, and the sampler (which does
/// not go through the sink) still captures complete heatmaps.
#[test]
fn trace_dropped_gauge_and_banner_agree_under_telemetry_sampling() {
    // A full-size sink first, to know the true delivery count.
    let (full, full_events) = launch_with(Some(TEL));
    let expected_deliveries = full_events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Delivery { .. }))
        .count() as u64;

    // The gauge is set by the executor while it holds the sink; the
    // runtime-lane events emitted after it may evict a little more, so
    // the gauge lower-bounds the sink's final counter.
    let sink = Arc::new(RingSink::new(4)); // far too small for this run
    let mut rt = runtime().with_trace_sink(sink.clone());
    rt.set_telemetry(TEL);
    let out = rt.launch(&pipeline(), 7).unwrap();

    let dropped = sink.dropped();
    assert!(dropped > 0, "the tiny ring must evict");
    let gauge = out.metrics.gauge(names::TRACE_DROPPED).unwrap();
    assert!(
        gauge > 0 && gauge <= dropped,
        "gauge snapshots executor-time loss"
    );
    let banner = sink.chrome_trace();
    assert!(banner.contains(&format!(
        "WARNING: trace truncated — {dropped} event(s) dropped"
    )));
    assert!(banner.contains(&format!("\"dropped\":{dropped}")));
    // Sampling is not a sink client: the lossy trace loses events, the
    // telemetry loses nothing.
    let t = out.telemetry.unwrap();
    let sampled: u64 = t
        .labels(series::LINK_DELIVERIES)
        .iter()
        .map(|l| t.get(series::LINK_DELIVERIES, l).unwrap().total())
        .sum();
    assert_eq!(sampled, expected_deliveries);
    assert_eq!(t, full.telemetry.unwrap(), "loss-independent telemetry");
}

/// Satellite: hostile tenant names round-trip through the telemetry JSON
/// and the Perfetto counter-track export via the in-repo escapers.
#[test]
fn hostile_tenant_names_round_trip_through_both_exports() {
    let hostile = "ten\"ant\\zero\n\u{1}[end]";
    let sink = Arc::new(RingSink::new(1 << 16));
    let rt = runtime().with_trace_sink(sink.clone());
    let cfg = ServeConfig {
        seed: 3,
        telemetry: Some(TEL),
        ..ServeConfig::default()
    };
    let mut server = Server::new(rt, cfg);
    let model = server.add_model(|_| pipeline());
    server.name_tenant(0, hostile);
    assert_eq!(server.tenant_label(0), hostile);
    assert_eq!(server.tenant_label(9), "tenant9", "unnamed default");
    let report = server
        .serve(&[Request {
            at: 0,
            tenant: 0,
            model,
            priority: 0,
            deadline_slack: 10_000_000,
        }])
        .unwrap();
    assert!(matches!(report.outcomes[0], RequestOutcome::Served { .. }));
    let t = report.telemetry.unwrap();
    assert!(t.get(series::SERVE_THROUGHPUT, hostile).is_some());

    // JSON round trip preserves the name exactly.
    let round = tsm_trace::Telemetry::from_json(&t.to_json()).unwrap();
    assert_eq!(round, t);
    assert!(round.get(series::SERVE_THROUGHPUT, hostile).is_some());

    // The Perfetto export escapes it; the raw control byte never appears.
    let doc = chrome_trace_json_telemetry(&sink.sorted_events(), 0, &t);
    assert!(doc.contains(r#"serve.throughput[ten\"ant\\zero\n\u0001[end]]"#));
    assert!(!doc.contains('\u{1}'));
}

#[test]
fn serving_events_are_emitted_in_cycle_order() {
    for tel in [None, Some(TEL)] {
        let (_, sink) = serve_traced(tel);
        let serving: Vec<u64> = sink
            .events()
            .iter()
            .filter(|e| e.lane == SERVING_LANE)
            .map(|e| e.cycle)
            .collect();
        assert!(!serving.is_empty());
        assert!(
            serving.windows(2).all(|w| w[0] <= w[1]),
            "serving lane goes back in time (telemetry={})",
            tel.is_some()
        );
    }
}
