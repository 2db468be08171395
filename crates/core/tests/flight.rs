//! Flight-recorder invariants, machine-checked end to end:
//!
//! - **Off-identity**: with the recorder disabled, the serve report and
//!   event sequence are bit-identical to a build without the feature —
//!   the only difference an armed run may introduce is the `incidents`
//!   field itself.
//! - **Trigger coverage**: sheds, in-queue expiries, SLO misses, and
//!   faulted (replaying/failing-over) launches each produce an incident
//!   whose snapshots agree with the run's own accounting.
//! - **Bounded capture**: the trace tail keeps the last K serving-lane
//!   events and `max_incidents` caps recording, visible as `seq` gaps.
//! - **Reproducibility**: a fault-injected serve run produces incidents
//!   byte-reproducible from its seed.
//! - **Telemetry bracketing**: each incident carries exactly the
//!   telemetry windows `[w-1, w+1]` around its trigger cycle.
//! - **Cycle order**: the serving lane is emitted in cycle order, so a
//!   late batch's SLO-miss snapshot includes the arrivals that came while
//!   it ran.

use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::flight::{FlightConfig, IncidentTrigger};
use tsm_core::runtime::{ExecMode, Runtime, SparePolicy};
use tsm_core::serving::{Request, ServeConfig, ServeReport, Server};
use tsm_core::system::System;
use tsm_topology::{LinkId, NodeId, TspId};
use tsm_trace::telemetry::TelemetryConfig;
use tsm_trace::{EventKind, RingSink, TraceEvent, SERVING_LANE};

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

fn make_marginal(rt: &mut Runtime, victim: NodeId) {
    rt.set_ber(0.0, 2e-5);
    let bad: Vec<LinkId> = rt
        .system()
        .topology()
        .links()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.a.node() == victim || l.b.node() == victim)
        .map(|(i, _)| LinkId(i as u32))
        .collect();
    for l in bad {
        rt.degrade_link(l);
    }
}

/// A hostile little workload: a tight queue (sheds), tight deadlines on
/// tenant 1 (expiries and SLO misses), and enough load to batch.
fn offered_hostile() -> Vec<Request> {
    let mut offered = Vec::new();
    for i in 0..6u64 {
        offered.push(Request {
            at: i * 100,
            tenant: 0,
            model: 0,
            priority: 1,
            deadline_slack: 10_000_000,
        });
        offered.push(Request {
            at: i * 100 + 25,
            tenant: 1,
            model: 0,
            priority: 1,
            deadline_slack: 5_000, // tighter than a batch's service time
        });
    }
    offered
}

fn serve_with(
    flight: Option<FlightConfig>,
    telemetry: Option<TelemetryConfig>,
    marginal: bool,
    seed: u64,
) -> (ServeReport, Vec<TraceEvent>) {
    let (report, sink) = serve_traced(flight, telemetry, marginal, seed);
    (report, sink.sorted_events())
}

/// [`serve_with`], handing back the sink so callers can read events in
/// emission order.
fn serve_traced(
    flight: Option<FlightConfig>,
    telemetry: Option<TelemetryConfig>,
    marginal: bool,
    seed: u64,
) -> (ServeReport, Arc<RingSink>) {
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = runtime();
    rt.set_trace_sink(sink.clone());
    if marginal {
        make_marginal(&mut rt, NodeId(1));
    }
    let cfg = ServeConfig {
        batch_window: 400,
        max_batch: 4,
        queue_capacity: 3,
        tenant_quota: 2,
        seed,
        telemetry,
        flight,
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
    let report = server.serve(&offered_hostile()).unwrap();
    assert_eq!(sink.dropped(), 0);
    (report, sink)
}

const FLIGHT: FlightConfig = FlightConfig {
    trace_tail: 16,
    max_incidents: 32,
};

#[test]
fn flight_off_is_bit_identical_and_on_only_adds_the_field() {
    let (off, ev_off) = serve_with(None, None, false, 42);
    let (on, ev_on) = serve_with(Some(FLIGHT), None, false, 42);
    assert!(off.incidents.is_none(), "disabled runs carry no field");
    assert!(
        !on.incidents.as_ref().unwrap().is_empty(),
        "the hostile workload captures incidents"
    );
    assert_eq!(ev_on, ev_off, "the recorder must not perturb the trace");
    let mut stripped = on.clone();
    stripped.incidents = None;
    assert_eq!(stripped, off, "report differs only in the incidents field");
}

#[test]
fn triggers_cover_shed_expiry_and_slo_miss_and_snapshots_agree() {
    let (report, _) = serve_with(Some(FLIGHT), None, false, 42);
    assert!(report.shed > 0, "the tight queue sheds");
    assert!(report.expired > 0, "the tight deadlines expire in queue");
    let incidents = report.incidents.as_ref().unwrap();

    let count = |kind: &str| {
        incidents
            .iter()
            .filter(|i| i.trigger.kind() == kind)
            .count() as u64
    };
    assert_eq!(count("shed"), report.shed, "one incident per shed");
    assert_eq!(count("expired"), report.expired, "one per in-queue expiry");
    assert!(count("slo_miss") > 0, "late completions fire too");
    assert_eq!(count("fault") + count("deviant"), 0, "clean fabric");

    // Snapshots agree with the run's own configuration and ordering.
    let mut last_seq = None;
    for inc in incidents {
        assert_eq!(inc.queue_capacity, 3);
        assert_eq!(inc.tenant_quota, 2);
        assert!(inc.queue_depth <= inc.queue_capacity);
        assert!(inc.tracked_tenants <= 2);
        assert!(last_seq < Some(inc.seq) || last_seq.is_none());
        last_seq = Some(inc.seq);
        // The tail is serving-lane only, bounded, and in observation
        // order, which is cycle order.
        assert!(inc.trace_tail.len() <= FLIGHT.trace_tail);
        for pair in inc.trace_tail.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
            assert!(pair[0].cycle <= pair[1].cycle, "tail goes back in time");
        }
        for e in &inc.trace_tail {
            assert_eq!(e.lane, SERVING_LANE);
        }
        assert!(inc.telemetry.is_none(), "no sampler, no telemetry block");
    }
    // With max_incidents ample, seq is gap-free from zero.
    let seqs: Vec<u64> = incidents.iter().map(|i| i.seq).collect();
    assert_eq!(seqs, (0..incidents.len() as u64).collect::<Vec<_>>());
}

#[test]
fn faulty_serve_incidents_are_byte_reproducible_from_seed() {
    // Find a seed whose marginal run actually replays or fails over.
    let seed = (0..64u64)
        .find(|&seed| {
            let (report, _) = serve_with(Some(FLIGHT), None, true, seed);
            report
                .incidents
                .as_ref()
                .unwrap()
                .iter()
                .any(|i| i.trigger.kind() == "fault")
        })
        .expect("some seed in 0..64 faults on the marginal fabric");
    let (a, ev_a) = serve_with(Some(FLIGHT), None, true, seed);
    let (b, ev_b) = serve_with(Some(FLIGHT), None, true, seed);
    assert_eq!(a, b, "same seed, same report");
    assert_eq!(ev_a, ev_b);
    let incidents = a.incidents.as_ref().unwrap();
    let fault = incidents
        .iter()
        .find(|i| i.trigger.kind() == "fault")
        .unwrap();
    let IncidentTrigger::Fault {
        replays, failovers, ..
    } = fault.trigger
    else {
        unreachable!("filtered on kind");
    };
    assert!(replays > 0 || failovers > 0);
    for (x, y) in incidents.iter().zip(b.incidents.as_ref().unwrap()) {
        assert_eq!(
            x.to_json(),
            y.to_json(),
            "byte-reproducible incident from seed"
        );
    }
}

#[test]
fn max_incidents_caps_capture_and_keeps_the_earliest() {
    let tiny = FlightConfig {
        trace_tail: 8,
        max_incidents: 1,
    };
    let (report, _) = serve_with(Some(tiny), None, false, 42);
    let incidents = report.incidents.as_ref().unwrap();
    assert_eq!(incidents.len(), 1, "capture is bounded");
    assert_eq!(incidents[0].seq, 0, "the earliest trigger is kept");
    assert!(
        report.shed + report.expired > 1,
        "more triggers fired than were recorded"
    );
}

#[test]
fn telemetry_windows_bracket_each_incident() {
    let tel = TelemetryConfig {
        window: 4096,
        slo_permille: 990,
    };
    let (report, _) = serve_with(Some(FLIGHT), Some(tel), false, 42);
    let incidents = report.incidents.as_ref().unwrap();
    assert!(!incidents.is_empty());
    for inc in incidents {
        let w = inc.cycle / tel.window;
        assert_eq!(inc.telemetry_window, Some(w));
        let t = inc.telemetry.as_ref().expect("sampler was on");
        assert_eq!(t.window, tel.window);
        assert_eq!(t.slo_permille, tel.slo_permille);
        for s in &t.series {
            assert!(!s.points.is_empty(), "clipped series keep only real points");
            for &(pw, _) in &s.points {
                assert!(
                    (w.saturating_sub(1)..=w + 1).contains(&pw),
                    "window {pw} outside bracket around {w}"
                );
            }
        }
        // The full report telemetry is a superset of every bracket.
        let full = report.telemetry.as_ref().unwrap();
        for s in &t.series {
            let fs = full.get(&s.name, &s.label).expect("series exists in full");
            for p in &s.points {
                assert!(fs.points.contains(p));
            }
        }
    }
}

#[test]
fn serving_events_are_emitted_in_cycle_order() {
    for marginal in [false, true] {
        for seed in [1, 7, 42] {
            let (_, sink) = serve_traced(Some(FLIGHT), None, marginal, seed);
            let serving: Vec<u64> = sink
                .events()
                .iter()
                .filter(|e| e.lane == SERVING_LANE)
                .map(|e| e.cycle)
                .collect();
            assert!(!serving.is_empty());
            assert!(
                serving.windows(2).all(|w| w[0] <= w[1]),
                "serving lane goes back in time (marginal={marginal}, seed={seed})"
            );
        }
    }
}

#[test]
fn an_arrival_during_a_late_batch_is_in_its_slo_miss_snapshot() {
    let rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem);
    let mut server = Server::new(
        rt,
        ServeConfig {
            flight: Some(FLIGHT),
            ..ServeConfig::default()
        },
    );
    server.add_model(|batch| {
        let mut g = Graph::new();
        g.add(
            TspId(0),
            OpKind::Compute {
                cycles: 10_000 * batch as u64,
            },
            vec![],
        )
        .unwrap();
        g
    });
    let request = |at, deadline_slack| Request {
        at,
        tenant: 0,
        model: 0,
        priority: 1,
        deadline_slack,
    };
    // Request 0 dispatches alone at cycle 0 and misses its deadline;
    // request 1 arrives while batch 0 is still running.
    let report = server
        .serve(&[request(0, 100), request(50, 10_000_000)])
        .unwrap();
    assert_eq!(report.batches[0].completion, 11_576);
    let incidents = report.incidents.unwrap();
    let miss = incidents
        .iter()
        .find(|i| i.trigger.kind() == "slo_miss")
        .expect("request 0 misses its SLO");
    assert_eq!(miss.cycle, 11_576);
    assert_eq!(miss.queue_depth, 1, "request 1 waits behind batch 0");
    assert_eq!(miss.tracked_tenants, 1);
    assert!(
        miss.trace_tail.iter().any(|e| e.cycle == 50
            && e.kind
                == EventKind::RequestEnqueue {
                    tenant: 0,
                    request: 1
                }),
        "the tail holds request 1's enqueue"
    );
}
