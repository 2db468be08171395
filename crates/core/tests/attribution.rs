//! Causal latency attribution, machine-checked end to end:
//!
//! - **Sums-to-total**: every served request of a serve run — clean,
//!   faulty/replaying, or certified — carries a `LatencyBreakdown` whose
//!   stage components sum *exactly* to its measured enqueue→complete
//!   latency, with zero gaps and zero overlaps.
//! - **Off-identity**: with attribution disabled, the serve report,
//!   the event sequence, and every batch outcome are bit-identical to a
//!   build without the feature — the only difference an enabled run may
//!   introduce is the `attribution` field itself.
//! - **Aggregation**: the report's per-stage histograms and
//!   per-tenant/per-stage counters are exactly the fold of the
//!   individual breakdowns.
//! - **Reproducibility**: same seed, same report, every breakdown
//!   included.

use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::runtime::{ExecMode, Runtime, SparePolicy};
use tsm_core::serving::{Request, RequestOutcome, ServeConfig, ServeReport, Server};
use tsm_core::system::System;
use tsm_topology::{LinkId, NodeId, TspId};
use tsm_trace::{LatencyBreakdown, RingSink, Stage, TraceEvent, SERVING_LANE};

/// The multi-hop pipeline from the identity suite: compute, a cross-node
/// transfer, dependent compute.
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

/// Marks every cable into `victim` marginal at a BER where replays (and
/// occasionally failovers) actually fire.
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

/// Two tenants, several requests inside one batch window plus
/// stragglers — batching, window waits, and queue waits all occur.
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
            deadline_slack: 10_000_000,
        });
    }
    offered
}

fn serve_with(
    attribution: bool,
    certify: bool,
    marginal: bool,
    seed: u64,
) -> (ServeReport, Vec<TraceEvent>) {
    let (report, sink) = serve_traced(attribution, certify, marginal, seed);
    (report, sink.sorted_events())
}

/// [`serve_with`], handing back the sink so callers can read events in
/// emission order.
fn serve_traced(
    attribution: bool,
    certify: bool,
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
        batch_window: 500,
        max_batch: 4,
        seed,
        certify,
        attribution,
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

/// Every breakdown must agree with its request's `Served` outcome and
/// satisfy the sum identity explicitly (the serve run already verified
/// it; this re-derives it from the public accessors).
fn assert_breakdowns_exact(report: &ServeReport) {
    let attr = report.attribution.as_ref().expect("attribution is on");
    assert_eq!(
        attr.len() as u64,
        report.served,
        "one breakdown per served request"
    );
    for b in &attr.breakdowns {
        let outcome = report.outcomes[b.request as usize];
        let RequestOutcome::Served {
            batch,
            completion,
            latency,
        } = outcome
        else {
            panic!("breakdown for a non-served request {}", b.request);
        };
        assert_eq!(b.batch, batch);
        assert_eq!(b.completion, completion);
        assert_eq!(b.latency(), latency, "end-to-end latency agrees");
        let sum: u64 = Stage::ALL.iter().map(|&s| b.component(s)).sum();
        assert_eq!(sum, b.latency(), "components sum exactly — no gap/overlap");
        assert!(b.verify().is_ok());
    }
}

#[test]
fn attribution_off_is_bit_identical_and_on_only_adds_the_field() {
    let (off, ev_off) = serve_with(false, false, false, 42);
    let (on, ev_on) = serve_with(true, false, false, 42);
    assert!(off.attribution.is_none(), "disabled runs carry no field");
    assert!(on.attribution.is_some());
    assert_eq!(ev_on, ev_off, "attribution must not perturb the trace");
    let mut stripped = on.clone();
    stripped.attribution = None;
    assert_eq!(
        stripped, off,
        "report differs only in the attribution field"
    );
}

#[test]
fn every_served_request_sums_exactly_on_the_clean_path() {
    let (report, _) = serve_with(true, false, false, 42);
    assert!(report.served > 0);
    assert_breakdowns_exact(&report);
    let attr = report.attribution.as_ref().unwrap();
    // The clean path replays nothing; batched requests paid window
    // and/or queue wait; every launch drains one epoch gap per attempt.
    for b in &attr.breakdowns {
        assert_eq!(b.component(Stage::Replay), 0, "clean launches never replay");
        assert!(b.component(Stage::Execute) > 0);
        assert!(b.component(Stage::Drain) > 0);
    }
    assert!(
        attr.breakdowns
            .iter()
            .any(|b| b.component(Stage::WindowWait) > 0),
        "the 500-cycle batch window is visible as window wait"
    );
}

#[test]
fn faulty_serves_attribute_replay_cycles_and_still_sum_exactly() {
    // Find a seed whose marginal-fabric run actually replays.
    let report = (0..64u64)
        .find_map(|seed| {
            let (report, _) = serve_with(true, false, true, seed);
            report
                .batches
                .iter()
                .any(|b| b.outcome.replays() > 0)
                .then_some(report)
        })
        .expect("some seed in 0..64 replays on the marginal fabric");
    assert_breakdowns_exact(&report);
    let attr = report.attribution.as_ref().unwrap();
    let replayed: Vec<&LatencyBreakdown> = attr
        .breakdowns
        .iter()
        .filter(|b| b.component(Stage::Replay) > 0)
        .collect();
    assert!(
        !replayed.is_empty(),
        "replaying batches surface replay cycles in their requests"
    );
    for b in replayed {
        let outcome = &report.batches[b.batch as usize].outcome;
        assert!(outcome.attempts() > 1);
        // Drain scales with attempts: one epoch gap per attempt.
        assert_eq!(b.component(Stage::Drain) % u64::from(outcome.attempts()), 0);
    }
}

#[test]
fn certified_serves_attribute_and_record_compile_reuse() {
    let (report, _) = serve_with(true, true, false, 42);
    assert_breakdowns_exact(&report);
    let attr = report.attribution.as_ref().unwrap();
    // The first batch compiles; later batches of the same model shape
    // reuse. Compile-vs-reuse is zero-width on the virtual timeline, so
    // it is recorded as counts, not cycles.
    assert!(attr.breakdowns.iter().any(|b| b.compiles > 0));
    assert!(attr.breakdowns.iter().any(|b| b.reuses > 0));
    for b in &attr.breakdowns {
        assert!(report.batches[b.batch as usize].certified == Some(true));
    }
}

#[test]
fn aggregation_is_exactly_the_fold_of_the_breakdowns() {
    let (report, _) = serve_with(true, false, false, 42);
    let attr = report.attribution.as_ref().unwrap();
    let m = &attr.metrics;
    for stage in Stage::ALL {
        // Global histogram: one observation per request.
        let h = m
            .histogram(stage.histogram_metric())
            .expect("every stage histogram exists");
        assert_eq!(h.count, report.served);
        // Per-tenant totals: the exact component sums.
        for ten in &report.tenants {
            let want: u64 = attr
                .breakdowns
                .iter()
                .filter(|b| b.tenant == ten.tenant)
                .map(|b| b.component(stage))
                .sum();
            assert_eq!(
                m.counter_labeled(stage.total_metric(), ten.tenant),
                want,
                "tenant {} {} cycles",
                ten.tenant,
                stage.as_str()
            );
        }
    }
    // Critical verdicts partition the served requests.
    let critical_total: u64 = Stage::ALL
        .iter()
        .map(|&s| m.counter(s.critical_metric()))
        .sum();
    assert_eq!(critical_total, report.served);
    for stage in Stage::ALL {
        let want = attr
            .breakdowns
            .iter()
            .filter(|b| b.critical_stage() == stage)
            .count() as u64;
        assert_eq!(attr.critical_count(stage), want);
        assert_eq!(m.counter(stage.critical_metric()), want);
    }
}

#[test]
fn attribution_is_bit_reproducible() {
    let (a, _) = serve_with(true, false, false, 42);
    let (b, _) = serve_with(true, false, false, 42);
    assert!(!a.attribution.as_ref().unwrap().breakdowns.is_empty());
    assert_eq!(a, b, "same seed, same report, every breakdown included");
}

#[test]
fn serving_events_are_emitted_in_cycle_order() {
    for (certify, marginal) in [(false, false), (false, true), (true, true)] {
        for seed in [0, 3, 11] {
            let (_, sink) = serve_traced(true, certify, marginal, seed);
            let serving: Vec<u64> = sink
                .events()
                .iter()
                .filter(|e| e.lane == SERVING_LANE)
                .map(|e| e.cycle)
                .collect();
            assert!(!serving.is_empty());
            assert!(
                serving.windows(2).all(|w| w[0] <= w[1]),
                "serving lane goes back in time (certify={certify}, marginal={marginal}, \
                 seed={seed})"
            );
        }
    }
}
