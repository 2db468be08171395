//! Windowed-telemetry invariants, machine-checked end to end:
//!
//! - **Off-identity**: with telemetry disabled, launch and serve produce
//!   event sequences and records bit-identical to a build without the
//!   feature — the only difference an enabled run may introduce is the
//!   `telemetry` field itself.
//! - **Reproducibility**: the same seed reproduces the identical
//!   telemetry, byte for byte through the JSON round trip.
//! - **Heatmap fidelity**: a launch's per-link delivery counts and
//!   per-chip busy cycles are exactly the fold of its trace's `Delivery`
//!   and `ChipExec` events, window by window, replays and failovers
//!   included.
//! - **SLO accounting**: per-tenant met+missed partitions the tenant's
//!   terminal requests (served + expired).
//! - **Loss accounting**: under telemetry sampling, the `trace.dropped`
//!   gauge, the sink's counter, and the exporter's warning banner agree —
//!   and the heatmaps lose nothing (the fold sees every event before the
//!   user's sink does).
//! - **Escaping**: hostile tenant names are escaped in the JSON and
//!   Perfetto exports by the in-repo escapers.
//! - **No leaks between calls**: samples live and die with their launch,
//!   so neither a serve's nor a failed launch's heatmaps reach a later
//!   call on the same runtime.

use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::launch::LaunchEngine;
use tsm_core::runtime::{ExecMode, LaunchOutcome, Runtime, RuntimeError, SparePolicy};
use tsm_core::serving::{Request, RequestOutcome, ServeConfig, ServeReport, Server};
use tsm_core::system::System;
use tsm_topology::{LinkId, NodeId, TspId};
use tsm_trace::telemetry::{series, Telemetry, TelemetryConfig};
use tsm_trace::{
    chrome_trace_json, names, ChromeExtras, EventKind, RingSink, TraceEvent, SERVING_LANE,
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

/// Launches the pipeline with seed 7 on `rt` and telemetry window `tel`.
fn launch(rt: &mut Runtime, tel: Option<TelemetryConfig>) -> Result<LaunchOutcome, RuntimeError> {
    LaunchEngine::new(rt, &pipeline(), 7)
        .with_telemetry(tel)
        .run()
}

/// [`launch`] on a fresh runtime over `fabric`, traced into a lossless
/// ring.
fn launch_traced(
    tel: Option<TelemetryConfig>,
    fabric: fn(&mut Runtime),
) -> (LaunchOutcome, Vec<TraceEvent>) {
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = runtime();
    rt.set_trace_sink(sink.clone());
    fabric(&mut rt);
    let out = launch(&mut rt, tel).unwrap();
    assert_eq!(sink.dropped(), 0);
    (out, sink.sorted_events())
}

fn launch_with(tel: Option<TelemetryConfig>) -> (LaunchOutcome, Vec<TraceEvent>) {
    launch_traced(tel, |_| {})
}

/// Marks every cable of node 1, which holds the pipeline's destination,
/// marginal at a rate where every attempt loses a packet: the launch
/// aborts its whole replay budget, then fails node 1 over to the spare.
fn marginal_node_1(rt: &mut Runtime) {
    let cables: Vec<LinkId> = (0..rt.system().topology().links().len())
        .map(|l| LinkId(l as u32))
        .filter(|&l| {
            let link = rt.system().topology().link(l);
            link.a.node() == NodeId(1) || link.b.node() == NodeId(1)
        })
        .collect();
    for l in cables {
        rt.degrade_link(l);
    }
    rt.set_ber(0.0, 5e-4);
}

/// The heatmaps folded straight from trace events, as a launch's
/// telemetry must be.
fn fold(events: &[TraceEvent], cfg: TelemetryConfig) -> Telemetry {
    let mut t = Telemetry::empty(cfg);
    for e in events {
        match e.kind {
            EventKind::Delivery { link, .. } => {
                t.count(series::LINK_DELIVERIES, &format!("link{link}"), e.cycle, 1)
            }
            EventKind::ChipExec { .. } => t.count_span(
                series::CHIP_BUSY,
                &format!("chip{}", e.lane),
                e.cycle,
                e.dur,
            ),
            _ => {}
        }
    }
    t
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

/// A launch's heatmaps are the fold of its own trace: the record equals a
/// fold of a lossless ring's `Delivery` and `ChipExec` events,
/// window by window and label by label — on the clean pipeline, and on a
/// marginal fabric whose launch aborts three attempts and fails over, so
/// aborted attempts and the spare's chips count too. Totals agree with
/// the event counts and span widths.
#[test]
fn launch_heatmaps_agree_with_the_trace() {
    for (case, fabric) in [
        ("clean", (|_| {}) as fn(&mut Runtime)),
        ("marginal", marginal_node_1),
    ] {
        let (on, events) = launch_traced(Some(TEL), fabric);
        if case == "marginal" {
            assert_eq!(on.attempts(), 4, "three aborted attempts, then the spare");
            assert_eq!(on.failovers, vec![NodeId(1)]);
        }
        let t = on.telemetry.unwrap();
        let folded = fold(&events, TEL);
        assert_eq!(t.window, folded.window);
        for name in [series::LINK_DELIVERIES, series::CHIP_BUSY] {
            assert_eq!(t.labels(name), folded.labels(name), "{case}: {name}");
            for label in t.labels(name) {
                assert_eq!(
                    t.get(name, label).unwrap().points,
                    folded.get(name, label).unwrap().points,
                    "{case}: {name}[{label}]"
                );
            }
        }
        assert_eq!(t, folded, "{case}: the record is the fold");

        let traced_deliveries = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Delivery { .. }))
            .count() as u64;
        assert!(traced_deliveries > 0, "{case}: the pipeline crosses links");
        assert_eq!(sampled_deliveries(&t), traced_deliveries);
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
            "{case}: both endpoint chips were busy"
        );
    }
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
    let mut rt = runtime();
    rt.set_trace_sink(sink.clone());
    let mut server = server(rt, tel);
    let report = server.serve(&offered_mixed()).unwrap();
    assert_eq!(sink.dropped(), 0);
    (report, sink)
}

/// A server over `rt` with the pipeline, widened per batch, as its model.
fn server(rt: Runtime, tel: Option<TelemetryConfig>) -> Server {
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
    server
}

/// Marks every cable of `rt` marginal at `ber`: no failover can escape.
fn degrade_every_cable(rt: &mut Runtime, ber: f64) {
    for l in 0..rt.system().topology().links().len() {
        rt.degrade_link(LinkId(l as u32));
    }
    rt.set_ber(0.0, ber);
}

/// Total `link.deliveries` over every link of `t`.
fn sampled_deliveries(t: &tsm_trace::Telemetry) -> u64 {
    t.labels(series::LINK_DELIVERIES)
        .iter()
        .map(|l| t.get(series::LINK_DELIVERIES, l).unwrap().total())
        .sum()
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

/// Under telemetry sampling, trace-loss accounting stays coherent — the
/// `trace.dropped` gauge equals the sink's counter, the Perfetto banner
/// reports the same number, and the heatmaps are complete: the fold sees
/// every event before the lossy sink does.
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
    let mut rt = runtime();
    rt.set_trace_sink(sink.clone());
    let out = launch(&mut rt, Some(TEL)).unwrap();

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
    // The fold comes before the sink: the lossy trace loses events, the
    // telemetry loses nothing.
    let t = out.telemetry.unwrap();
    assert_eq!(sampled_deliveries(&t), expected_deliveries);
    assert_eq!(t, full.telemetry.unwrap(), "loss-independent telemetry");
}

/// Hostile tenant names are escaped in the telemetry JSON and the
/// Perfetto counter-track export by the in-repo escapers.
#[test]
fn hostile_tenant_names_are_escaped_in_both_exports() {
    let hostile = "ten\"ant\\zero\n\u{1}[end]";
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = runtime();
    rt.set_trace_sink(sink.clone());
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

    // The telemetry JSON is one well-formed value holding the name
    // escaped.
    let json = t.to_json();
    let mut c = tsm_trace::Cursor::new(&json);
    c.raw_value().and_then(|_| c.expect_end()).expect(&json);
    assert!(json.contains(r#""label": "ten\"ant\\zero\n\u0001[end]""#));

    // The Perfetto export escapes it; the raw control byte never appears.
    let extras = ChromeExtras {
        telemetry: Some(&t),
        ..ChromeExtras::default()
    };
    let doc = chrome_trace_json(&sink.sorted_events(), extras);
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

/// A serve's telemetry belongs to its own launches: on the runtime a
/// telemetry-on serve hands back, a telemetry-off serve carries no
/// heatmaps and a later launch carries none, also after a telemetry-on
/// serve that failed in a launch.
#[test]
fn serve_telemetry_does_not_outlive_the_serve() {
    let mut on = server(runtime(), Some(TEL));
    on.serve(&offered_mixed()).unwrap();

    let mut off = server(on.into_runtime(), None);
    let report = off.serve(&offered_mixed()).unwrap();
    assert!(!report.batches.is_empty());
    assert!(
        report.batches.iter().all(|b| b.outcome.telemetry.is_none()),
        "a telemetry-off serve samples nothing"
    );
    let out = off.into_runtime().launch(&pipeline(), 7).unwrap();
    assert!(out.telemetry.is_none(), "a later launch samples nothing");

    let mut failing = server(runtime(), Some(TEL));
    degrade_every_cable(failing.runtime_mut(), 1e-3);
    let err = failing.serve(&offered_mixed()).unwrap_err();
    assert!(matches!(err, RuntimeError::OutOfSpares { .. }), "{err:?}");
    let mut rt = failing.into_runtime();
    rt.set_ber(0.0, 0.0);
    let out = rt.launch(&pipeline(), 7).unwrap();
    assert!(out.telemetry.is_none(), "nor after a failed serve");
}

/// A launch that ends in error never reaches `finish`; whatever it
/// sampled dies with it, so the next one-attempt launch on the same
/// runtime samples exactly its own deliveries.
#[test]
fn failed_launch_samples_do_not_reach_the_next_launch() {
    for ber in [1e-3, 5e-4, 2e-4] {
        let mut rt = runtime();
        degrade_every_cable(&mut rt, ber);
        let err = launch(&mut rt, Some(TEL)).unwrap_err();
        assert!(matches!(err, RuntimeError::OutOfSpares { .. }), "{err:?}");

        rt.set_ber(0.0, 0.0);
        let out = launch(&mut rt, Some(TEL)).unwrap();
        assert_eq!(out.attempts(), 1);
        let delivered = out.metrics.counter(names::COSIM_DELIVERIES);
        assert!(delivered > 0);
        assert_eq!(
            sampled_deliveries(&out.telemetry.unwrap()),
            delivered,
            "stale samples after a failed launch at BER {ber}"
        );
    }
}
