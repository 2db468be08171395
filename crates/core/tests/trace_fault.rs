//! Fault-path trace assertions: one faulty launch renders as a complete,
//! self-consistent timeline — replay epochs, exactly one blame vote and
//! one failover for the marginal node, and link-level FEC events with the
//! exact (link) coordinates of the injected corruption.

use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::cosim::{
    compile_plan, ExecArgs, LinkFaultModel, PlanExecutor, TargetedFlip, TransferShape,
};
use tsm_core::runtime::{Runtime, SparePolicy};
use tsm_core::system::System;
use tsm_isa::Vector;
use tsm_topology::{LinkId, NodeId, Topology, TspId};
use tsm_trace::{chrome_trace_json, ChromeExtras, EventKind, RingSink, RUNTIME_LANE};

/// A logical pipeline spanning the first two logical nodes.
fn logical_pipeline() -> Graph {
    let mut g = Graph::new();
    let a = g
        .add(TspId(0), OpKind::Compute { cycles: 10_000 }, vec![])
        .unwrap();
    let t = g
        .add(
            TspId(0),
            OpKind::Transfer {
                to: TspId(8),
                bytes: 640_000,
                allow_nonminimal: true,
            },
            vec![a],
        )
        .unwrap();
    g.add(TspId(8), OpKind::Compute { cycles: 10_000 }, vec![t])
        .unwrap();
    g
}

/// A runtime whose cables into `victim` are all marginal: the launch must
/// replay, blame the node, and fail over to the spare.
fn marginal_runtime(victim: NodeId) -> Runtime {
    let mut rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem);
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
    rt
}

fn count(events: &[tsm_trace::TraceEvent], pred: impl Fn(&EventKind) -> bool) -> usize {
    events.iter().filter(|e| pred(&e.kind)).count()
}

#[test]
fn faulty_launch_traces_one_blame_one_failover_and_every_epoch() {
    let victim = NodeId(1);
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = marginal_runtime(victim);
    rt.set_trace_sink(sink.clone());
    let out = rt.launch(&logical_pipeline(), 2).unwrap();
    assert_eq!(out.failovers, vec![victim], "scenario must fail over");
    assert!(out.attempts() > 1, "scenario must replay first");

    let events = sink.sorted_events();
    assert_eq!(sink.dropped(), 0);

    // Exactly one blame vote and one failover, naming the victim, with the
    // failover carrying the post-swap mapping epoch.
    let blames: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::BlameVote { node, votes } => Some((node, votes)),
            _ => None,
        })
        .collect();
    assert_eq!(blames.len(), 1);
    assert_eq!(blames[0].0, victim.0);
    assert!(blames[0].1 > 0, "the vote had endpoint evidence");
    let failovers: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Failover { node, epoch } => Some((node, epoch)),
            _ => None,
        })
        .collect();
    assert_eq!(failovers, vec![(victim.0, rt.mapping_epoch())]);

    // One replay-epoch span per attempt, numbered densely from zero.
    let epochs: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::ReplayEpoch { attempt } => Some(attempt),
            _ => None,
        })
        .collect();
    assert_eq!(epochs.len(), out.attempts() as usize);
    assert_eq!(epochs, (0..out.attempts()).collect::<Vec<_>>());

    // The launch frame: one begin, one end agreeing with the outcome, and
    // the alignment window when the outcome billed one.
    assert_eq!(
        count(&events, |k| matches!(k, EventKind::LaunchBegin { .. })),
        1
    );
    let ends: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::LaunchEnd { attempts } => Some(attempts),
            _ => None,
        })
        .collect();
    assert_eq!(ends, vec![out.attempts()]);
    assert_eq!(
        count(&events, |k| matches!(k, EventKind::Align)),
        (out.alignment_cycles > 0) as usize
    );

    // Orchestration events all live on the runtime lane, and replay epochs
    // occupy disjoint, ascending cycle windows.
    let runtime_events: Vec<_> = events.iter().filter(|e| e.lane == RUNTIME_LANE).collect();
    assert!(runtime_events.len() >= events.len().min(4));
    let mut last_end = 0u64;
    for e in events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ReplayEpoch { .. }))
    {
        assert!(e.cycle >= last_end, "epochs overlap on the timeline");
        last_end = e.cycle + e.dur;
    }

    // The whole thing exports as a non-trivial Chrome trace.
    let json = chrome_trace_json(&events, ChromeExtras::default());
    assert!(json.contains("\"runtime.failover\""));
    assert!(json.contains("\"runtime.replay_epoch\""));
}

#[test]
fn clean_launch_traces_no_blame_and_a_single_epoch() {
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem);
    rt.set_trace_sink(sink.clone());
    let out = rt.launch(&logical_pipeline(), 1).unwrap();
    assert_eq!(out.attempts(), 1);

    let events = sink.sorted_events();
    assert_eq!(
        count(&events, |k| matches!(k, EventKind::BlameVote { .. })),
        0
    );
    assert_eq!(
        count(&events, |k| matches!(k, EventKind::Failover { .. })),
        0
    );
    assert_eq!(
        count(&events, |k| matches!(k, EventKind::ReplayEpoch { .. })),
        1
    );
    assert_eq!(
        count(&events, |k| matches!(k, EventKind::Compile { .. })),
        1
    );
    assert_eq!(count(&events, |k| matches!(k, EventKind::Reuse { .. })), 0);

    // Relaunching the cached graph traces a reuse instead of a compile.
    let sink2 = Arc::new(RingSink::new(1 << 16));
    rt.set_trace_sink(sink2.clone());
    rt.launch(&logical_pipeline(), 3).unwrap();
    let events2 = sink2.sorted_events();
    assert_eq!(
        count(&events2, |k| matches!(k, EventKind::Compile { .. })),
        0
    );
    assert_eq!(count(&events2, |k| matches!(k, EventKind::Reuse { .. })), 1);
}

/// Targeted corruption surfaces as link-level FEC events with the exact
/// link coordinate: a single flip traces `LinkCorrected` on the struck
/// link; a double flip traces `LinkUncorrectable` there.
#[test]
fn targeted_flips_trace_the_struck_link() {
    let topo = Topology::fully_connected_nodes(2).unwrap();
    let from = TspId(0);
    let to = topo
        .tsps()
        .find(|&t| t.node() != from.node() && topo.links_between(from, t).is_empty())
        .expect("some non-adjacent cross-node TSP");
    let shapes = [TransferShape {
        from,
        to,
        src_slice: 0,
        src_offset: 0,
        dst_slice: 1,
        dst_offset: 0,
        vectors: 4,
    }];
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads = vec![(0..4u32)
        .map(|v| Arc::new(Vector::from_fn(|b| (b as u8) ^ v as u8)))
        .collect::<Vec<_>>()];
    let (transfer, vector, link) = (plan.chips().iter())
        .flat_map(|c| plan.deliveries(c))
        .map(|d| (d.vec.transfer, d.vec.vector, d.link))
        .next()
        .expect("the route has at least one hop");

    let sink = RingSink::new(1 << 14);
    let mut exec = PlanExecutor::new();
    let traced = |faults| ExecArgs {
        faults: Some(faults),
        sink: Some(&sink),
        ..ExecArgs::default()
    };

    let single = LinkFaultModel::targeted_only(vec![TargetedFlip {
        transfer,
        vector,
        link,
        bits: vec![997],
    }]);
    exec.execute_with(&plan, &payloads, traced(&single))
        .unwrap();
    let corrected: Vec<_> = sink
        .sorted_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::LinkCorrected { link, bit } => Some((link, bit)),
            _ => None,
        })
        .collect();
    assert_eq!(corrected, vec![(link.0, 997)]);

    sink.clear();
    let double = LinkFaultModel::targeted_only(vec![TargetedFlip {
        transfer,
        vector,
        link,
        bits: vec![3, 1200],
    }]);
    exec.execute_with(&plan, &payloads, traced(&double))
        .unwrap_err();
    let uncorrectable: Vec<_> = sink
        .sorted_events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::LinkUncorrectable { link } => Some(link),
            _ => None,
        })
        .collect();
    assert_eq!(uncorrectable, vec![link.0]);
}
