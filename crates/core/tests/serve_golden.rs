//! Golden pins of `Server::serve`: one fixed multi-tenant, two-model
//! fixture with every observer on (trace sink, telemetry, attribution,
//! flight recorder), over a clean and a marginal fabric.
//!
//! Each fabric pins two FNV-1a digests of the uncertified run:
//!
//! - the report without `incidents`: the metrics, telemetry and
//!   attribution JSON, plus the outcomes, batches (with their launch
//!   records), tenants, latency histogram, totals and makespan;
//! - the non-serving-lane trace events (the launches' own timelines), in
//!   emission order.
//!
//! Incidents and the serving lane are left out on purpose: they record
//! when the serving loop observed each event, which is the part a change
//! to the loop may legitimately alter. Everything pinned here is what the
//! loop *decides* — a digest change is a behaviour change, never a
//! re-pin.
//!
//! Certification only observes, so the certified run is pinned by
//! identity with the uncertified one rather than by digests of its own:
//! the same report once the verdicts are cleared, the same launch trace,
//! a verdict per batch equal to `Some(attempts == 1)`, and one extra
//! Deviant incident per batch that did not certify.

use std::fmt::Write as _;
use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::flight::{FlightConfig, IncidentReport, IncidentTrigger};
use tsm_core::runtime::{ExecMode, Runtime, SparePolicy};
use tsm_core::serving::{Request, RequestOutcome, ServeConfig, ServeReport, Server};
use tsm_core::system::System;
use tsm_topology::{LinkId, NodeId, TspId};
use tsm_trace::telemetry::TelemetryConfig;
use tsm_trace::{RingSink, TraceEvent, SERVING_LANE};

/// Uncertified pins per fabric: (report without incidents, launch trace).
const CLEAN: (u64, u64) = (10767313771079705818, 11349179071343632474);
const MARGINAL: (u64, u64) = (16795044075802140433, 12054163327429677918);

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Compute, a cross-node transfer, dependent compute, plus a
/// batch-proportional compute op so batching changes service time.
fn model_a(batch: u32) -> Graph {
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
    g.add(
        TspId(0),
        OpKind::Compute {
            cycles: 1_000 * batch as u64,
        },
        vec![],
    )
    .unwrap();
    g
}

/// A shorter second model on other chips, so the run alternates plans.
fn model_b(batch: u32) -> Graph {
    let mut g = Graph::new();
    let a = g
        .add(
            TspId(8),
            OpKind::Compute {
                cycles: 700 * batch as u64,
            },
            vec![],
        )
        .unwrap();
    g.add(
        TspId(8),
        OpKind::Transfer {
            to: TspId(3),
            bytes: 8_000,
            allow_nonminimal: true,
        },
        vec![a],
    )
    .unwrap();
    g
}

/// Three tenants over two models: a tight queue and quota (sheds), tight
/// deadlines on tenant 1 (expiries and SLO misses), a priority-0 tenant
/// that jumps the queue, and stragglers that reopen the batch window.
fn offered() -> Vec<Request> {
    let mut offered = Vec::new();
    for i in 0..8u64 {
        offered.push(Request {
            at: i * 150,
            tenant: 0,
            model: (i % 3 == 2) as u32,
            priority: 1,
            deadline_slack: 10_000_000,
        });
        offered.push(Request {
            at: i * 150 + 40,
            tenant: 1,
            model: 0,
            priority: 1,
            deadline_slack: 4_000,
        });
        if i % 2 == 1 {
            offered.push(Request {
                at: i * 150 + 40,
                tenant: 2,
                model: 1,
                priority: 0,
                deadline_slack: 60_000,
            });
        }
    }
    for k in 0..3u64 {
        offered.push(Request {
            at: 400_000 + k * 90_000,
            tenant: 2,
            model: k as u32 % 2,
            priority: 2,
            deadline_slack: 50_000,
        });
    }
    offered
}

fn serve(certify: bool, marginal: bool) -> (ServeReport, Vec<TraceEvent>) {
    let sink = Arc::new(RingSink::new(1 << 18));
    let mut rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
        .with_exec_mode(ExecMode::Datapath)
        .with_trace_sink(sink.clone());
    if marginal {
        rt.set_ber(0.0, 2e-5);
        let bad: Vec<LinkId> = rt
            .system()
            .topology()
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.a.node() == NodeId(1) || l.b.node() == NodeId(1))
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        for l in bad {
            rt.degrade_link(l);
        }
    }
    let cfg = ServeConfig {
        batch_window: 400,
        max_batch: 3,
        queue_capacity: 4,
        tenant_quota: 3,
        seed: 7,
        certify,
        telemetry: Some(TelemetryConfig {
            window: 4096,
            slo_permille: 990,
        }),
        attribution: true,
        flight: Some(FlightConfig {
            trace_tail: 16,
            max_incidents: 64,
        }),
    };
    let mut server = Server::new(rt, cfg);
    server.add_model(model_a);
    server.add_model(model_b);
    server.name_tenant(2, "batch-jobs");
    let report = server.serve(&offered()).unwrap();
    assert_eq!(sink.dropped(), 0);
    (report, sink.events())
}

/// Digest of everything in the report except `incidents`.
fn report_digest(r: &ServeReport) -> u64 {
    let attribution = r.attribution.as_ref().expect("attribution is on");
    let mut s = r.metrics.to_json();
    s += &r.telemetry.as_ref().expect("telemetry is on").to_json();
    s += &attribution.metrics.to_json();
    for b in &attribution.breakdowns {
        s += &b.to_json();
    }
    write!(
        s,
        "{:?}|{:?}|{:?}|{:?}|{} {} {} {} {}",
        r.outcomes,
        r.batches,
        r.tenants,
        r.latency,
        r.offered,
        r.served,
        r.shed,
        r.expired,
        r.makespan
    )
    .unwrap();
    fnv1a(s.as_bytes())
}

/// Digest of the launches' trace events, in emission order.
fn launch_trace_digest(events: &[TraceEvent]) -> u64 {
    let s: String = events
        .iter()
        .filter(|e| e.lane != SERVING_LANE)
        .map(TraceEvent::to_json)
        .collect();
    fnv1a(s.as_bytes())
}

/// The fixture exercises every serving outcome and every observer.
fn check_fixture(report: &ServeReport, marginal: bool) {
    assert!(report.shed > 0 && report.expired > 0 && report.served > 0);
    let late = offered()
        .iter()
        .zip(&report.outcomes)
        .filter(|(r, o)| {
            matches!(o, RequestOutcome::Served { completion, .. }
                if *completion > r.at + r.deadline_slack)
        })
        .count();
    assert!(late > 0, "some served request misses its SLO");
    assert!(report.batches.iter().any(|b| b.model == 1));
    assert!(!report.incidents.as_ref().unwrap().is_empty());
    if marginal {
        assert!(
            report.batches.iter().any(|b| b.attempts > 1),
            "the marginal fabric replays"
        );
    }
}

fn check_uncertified(marginal: bool, pinned: (u64, u64)) {
    let (report, events) = serve(false, marginal);
    check_fixture(&report, marginal);
    let got = (report_digest(&report), launch_trace_digest(&events));
    assert_eq!(got, pinned, "serve digests changed (marginal={marginal})");
}

/// The certified run is the uncertified one plus the verdicts.
fn check_certified(marginal: bool, pinned: (u64, u64)) {
    let (mut off, _) = serve(false, marginal);
    let (on, events) = serve(true, marginal);
    check_fixture(&on, marginal);
    for b in &on.batches {
        assert_eq!(b.certified, Some(b.attempts == 1), "batch {}", b.batch);
    }
    // A batch that does not certify fires a Deviant incident at its end.
    let deviants: Vec<(u64, IncidentTrigger)> = on
        .batches
        .iter()
        .filter(|b| b.certified == Some(false))
        .map(|b| (b.completion, IncidentTrigger::Deviant { batch: b.batch }))
        .collect();
    assert_eq!(
        !deviants.is_empty(),
        marginal,
        "only the marginal fabric deviates"
    );

    // The same launches on the same sink: the launch trace is the
    // uncertified pin.
    assert_eq!(launch_trace_digest(&events), pinned.1);
    // The same report once the verdicts are cleared, incidents aside.
    let mut cleared = on;
    for b in &mut cleared.batches {
        b.certified = None;
    }
    let on_incidents = cleared.incidents.take().unwrap();
    let off_incidents = off.incidents.take().unwrap();
    assert_eq!(cleared, off);
    assert_eq!(report_digest(&cleared), pinned.0);
    // Every other incident fires as it does uncertified.
    assert_eq!(on_incidents.len(), off_incidents.len() + deviants.len());
    let fired = |v: &[IncidentReport], deviant: bool| -> Vec<(u64, IncidentTrigger)> {
        v.iter()
            .filter(|i| matches!(i.trigger, IncidentTrigger::Deviant { .. }) == deviant)
            .map(|i| (i.cycle, i.trigger))
            .collect()
    };
    assert_eq!(fired(&on_incidents, true), deviants);
    assert_eq!(fired(&on_incidents, false), fired(&off_incidents, false));
}

#[test]
fn clean_fabric_uncertified() {
    check_uncertified(false, CLEAN);
}

#[test]
fn clean_fabric_certified() {
    check_certified(false, CLEAN);
}

#[test]
fn marginal_fabric_uncertified() {
    check_uncertified(true, MARGINAL);
}

#[test]
fn marginal_fabric_certified() {
    check_certified(true, MARGINAL);
}
