//! The launch-vs-serve identity, machine-checked: `Runtime::launch`
//! through the staged engine is bit- and trace-identical to serving one
//! request through the frontend — same `LaunchOutcome`, same SRAM
//! digests, same event sequence once the `SERVING_LANE` bookkeeping is
//! filtered out. Holds on the fault-free path in both exec modes AND on
//! the faulty/replay path, which is what makes the serving layer a pure
//! wrapper rather than a second execution semantics.

use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::runtime::{ExecMode, LaunchOutcome, Runtime, SparePolicy};
use tsm_core::serving::{BatchRecord, Request, ServeConfig, Server};
use tsm_core::system::System;
use tsm_topology::{LinkId, NodeId, TspId};
use tsm_trace::{RingSink, TraceEvent, SERVING_LANE};

/// The multi-hop pipeline from the conformance suite: compute, a
/// cross-node transfer, dependent compute — so datapath launches carry
/// destination-SRAM digests.
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

fn runtime(mode: ExecMode) -> Runtime {
    Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem).with_exec_mode(mode)
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

/// Serves exactly one request (batch window 0, so the launch runs at
/// base 0 on the shared sink) and returns the batch record plus the
/// non-serving trace events.
fn serve_one(mode: ExecMode, cfg_seed: u64, marginal: bool) -> (BatchRecord, Vec<TraceEvent>) {
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = runtime(mode).with_trace_sink(sink.clone());
    if marginal {
        make_marginal(&mut rt, NodeId(1));
    }
    let cfg = ServeConfig {
        seed: cfg_seed,
        batch_window: 0,
        ..ServeConfig::default()
    };
    let mut server = Server::new(rt, cfg);
    let model = server.add_model(|batch| {
        assert_eq!(batch, 1, "a lone request batches alone");
        pipeline()
    });
    let report = server
        .serve(&[Request {
            at: 0,
            tenant: 0,
            model,
            priority: 0,
            deadline_slack: 1_000_000,
        }])
        .unwrap();
    assert_eq!((report.served, report.shed), (1, 0));
    assert_eq!(report.batches.len(), 1);
    assert_eq!(sink.dropped(), 0, "identity needs a lossless trace");
    let events = sink
        .sorted_events()
        .into_iter()
        .filter(|e| e.lane != SERVING_LANE)
        .collect();
    (report.batches[0].clone(), events)
}

/// The same launch, standalone, with the seed the serving frontend
/// recorded for the batch.
fn launch_standalone(
    mode: ExecMode,
    seed: u64,
    marginal: bool,
) -> (LaunchOutcome, Vec<TraceEvent>) {
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = runtime(mode).with_trace_sink(sink.clone());
    if marginal {
        make_marginal(&mut rt, NodeId(1));
    }
    let out = rt.launch(&pipeline(), seed).unwrap();
    assert_eq!(sink.dropped(), 0);
    (out, sink.sorted_events())
}

/// Asserts the full identity triplet for one `(mode, cfg_seed, marginal)`
/// point and returns the outcome for further inspection.
fn assert_identity(mode: ExecMode, cfg_seed: u64, marginal: bool) -> LaunchOutcome {
    let (batch, serve_events) = serve_one(mode, cfg_seed, marginal);
    let (out, launch_events) = launch_standalone(mode, batch.seed, marginal);

    // Same LaunchOutcome, field for field (metrics, failovers, alignment,
    // span, digests, timeline width)...
    assert_eq!(batch.outcome, out, "LaunchOutcome must be bit-identical");
    // ...same SRAM digests, called out explicitly...
    assert_eq!(batch.outcome.dst_digests, out.dst_digests);
    // ...and the same event sequence, event for event.
    assert!(!launch_events.is_empty(), "launches trace");
    assert_eq!(
        serve_events, launch_events,
        "serve-of-one trace (minus SERVING_LANE) must equal the launch trace"
    );
    // The serving bookkeeping agrees with the launch it wrapped.
    assert_eq!(batch.attempts, out.attempts());
    assert_eq!(batch.completion - batch.dispatch, out.timeline_cycles);
    out
}

#[test]
fn serve_of_one_is_bit_identical_to_launch_statistical() {
    let out = assert_identity(ExecMode::Statistical, 7, false);
    assert_eq!(out.attempts(), 1, "fault-free point");
    assert!(
        out.dst_digests.is_empty(),
        "statistical mode has no datapath"
    );
}

#[test]
fn serve_of_one_is_bit_identical_to_launch_datapath() {
    let out = assert_identity(ExecMode::Datapath, 7, false);
    assert_eq!(out.attempts(), 1, "fault-free point");
    assert!(
        !out.dst_digests.is_empty(),
        "datapath launches fingerprint every destination SRAM"
    );
}

/// The identity must survive the recovery machinery: find a serving seed
/// whose launch replays (uncorrectable fault, software replay, possibly a
/// failover) and check the standalone launch walks the exact same path.
#[test]
fn serve_of_one_matches_launch_on_the_replay_path() {
    let out = (0..64u64)
        .find_map(|cfg_seed| {
            let (batch, _) = serve_one(ExecMode::Datapath, cfg_seed, true);
            (batch.outcome.replays() > 0)
                .then(|| assert_identity(ExecMode::Datapath, cfg_seed, true))
        })
        .expect("some seed in 0..64 replays on the marginal fabric");
    assert!(out.attempts() >= 2, "a replay means at least two attempts");
    assert!(!out.dst_digests.is_empty());
}
