//! The conformance invariant, machine-checked end to end: a fault-free
//! run delivers every vector on exactly the cycle the compiler promised
//! (zero skew, serial and parallel alike), and a replayed launch shows
//! nonzero, deterministic, itemized per-link skew — one whole epoch
//! window per replay. The profiler is also the oracle for the serving
//! loop's certification, which reads its verdict off the launch record.

use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::cosim::{
    compile_plan, CompiledPlan, CosimTransfer, ExecArgs, PlanExecutor, TransferShape,
};
use tsm_core::runtime::{ExecMode, Runtime, SparePolicy};
use tsm_core::serving::{Request, ServeConfig, Server};
use tsm_core::system::System;
use tsm_isa::vector::VECTOR_BYTES;
use tsm_isa::Vector;
use tsm_topology::{LinkId, NodeId, Topology, TspId};
use tsm_trace::profile::{profile, Conformance, ProfileError};
use tsm_trace::{names, RingSink};

type Payload = Arc<Vector>;

/// A fixed multi-hop workload: three transfers across a two-node fabric,
/// including a cross-node route that must traverse C2C links.
fn workload() -> (Topology, Vec<CosimTransfer>) {
    let topo = Topology::fully_connected_nodes(2).unwrap();
    let mk = |idx: usize, from: u32, to: u32, vectors: usize, seed: u8| CosimTransfer {
        from: TspId(from),
        to: TspId(to),
        src_slice: (idx % 8) as u8,
        src_offset: (idx * 32) as u16,
        dst_slice: ((idx + 1) % 8) as u8,
        dst_offset: (idx * 32) as u16,
        data: (0..vectors)
            .map(|v| Vector::from_fn(|b| (b as u8) ^ seed.wrapping_add((idx * 31 + v) as u8)))
            .collect(),
    };
    let transfers = vec![
        mk(0, 0, 9, 12, 0x5a),
        mk(1, 7, 3, 7, 0x21),
        mk(2, 14, 2, 5, 0xe7),
    ];
    (topo, transfers)
}

fn compiled(topo: &Topology, transfers: &[CosimTransfer]) -> (CompiledPlan, Vec<Vec<Payload>>) {
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(topo, &shapes).unwrap();
    let payloads = transfers.iter().map(CosimTransfer::payload).collect();
    (plan, payloads)
}

/// Fault-free executor runs — serial and parallel — certify against the
/// plan: every delivery observed exactly once at exactly its scheduled
/// cycle, on every link.
#[test]
fn fault_free_runs_certify_with_zero_skew_serial_and_parallel() {
    let (topo, transfers) = workload();
    let (plan, payloads) = compiled(&topo, &transfers);
    let planned = plan.planned_timeline(&topo).unwrap();
    assert!(!planned.hops.is_empty(), "workload crosses links");

    for parallel in [false, true] {
        let sink = RingSink::new(1 << 16);
        let args = ExecArgs {
            threads: (!parallel).then_some(1),
            sink: Some(&sink),
            ..ExecArgs::default()
        };
        PlanExecutor::new()
            .execute_with(&plan, &payloads, args)
            .unwrap();

        let prof = profile(&planned, &sink.sorted_events(), sink.dropped()).unwrap();
        assert!(
            prof.certified(),
            "mode parallel={parallel}: {:?}",
            prof.conformance
        );
        assert_eq!(
            prof.conformance,
            Conformance::Certified {
                deliveries: planned.hops.len() as u64
            }
        );
        // Every link's observed delivery count equals its planned count,
        // and every used link shows nonzero occupancy.
        for l in &prof.links {
            assert_eq!(l.observed as usize, l.planned as usize, "link {}", l.link);
            assert!(l.busy > 0 && l.utilization > 0.0, "link {}", l.link);
        }
        // The critical path closes the schedule: its length is the latest
        // scheduled arrival, and its transfer carries zero slack.
        let cp = prof.critical_path.as_ref().unwrap();
        assert_eq!(cp.length, planned.arrivals.iter().copied().max().unwrap());
        assert!(!cp.hops.is_empty());
        let s = prof
            .slack
            .iter()
            .find(|s| s.transfer == cp.transfer)
            .unwrap();
        assert_eq!(s.slack, 0);
    }
}

fn logical_pipeline() -> Graph {
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

fn datapath_runtime() -> Runtime {
    Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
        .with_exec_mode(ExecMode::Datapath)
}

/// A clean `Runtime::launch` certifies too: the launch timeline's epoch
/// offset (alignment window) normalizes away, and the single attempt's
/// deliveries land cycle-exact.
#[test]
fn clean_datapath_launch_certifies_end_to_end() {
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = datapath_runtime();
    rt.set_trace_sink(sink.clone());
    let out = rt.launch(&logical_pipeline(), 1).unwrap();
    assert_eq!(out.attempts(), 1);

    let planned = rt
        .planned_timeline()
        .expect("datapath launch compiled a plan");
    let prof = profile(&planned, &sink.sorted_events(), sink.dropped()).unwrap();
    assert!(prof.certified(), "{:?}", prof.conformance);
    assert_eq!(prof.epochs.len(), 1, "one attempt, one epoch window");
    assert!(!prof.chips.is_empty(), "chip breakdown present");
}

/// Marks every cable into node 1 marginal at `ber`; 2e-5 is a BER where
/// a replay usually clears the fault without needing a failover. A `ber`
/// of 0 leaves the fabric clean.
fn marginal_runtime(ber: f64) -> Runtime {
    let mut rt = datapath_runtime();
    if ber == 0.0 {
        return rt;
    }
    rt.set_ber(0.0, ber);
    let victim = NodeId(1);
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

fn replay_profile(seed: u64) -> Option<tsm_trace::LaunchProfile> {
    let sink = Arc::new(RingSink::new(1 << 16));
    let mut rt = marginal_runtime(2e-5);
    rt.set_trace_sink(sink.clone());
    let out = rt.launch(&logical_pipeline(), seed).ok()?;
    // Replay-only recovery: a second attempt on the *same* plan, no
    // failover, so the final plan is also attempt 0's plan.
    if out.attempts() != 2 || !out.failovers.is_empty() {
        return None;
    }
    let planned = rt.planned_timeline().unwrap();
    Some(profile(&planned, &sink.sorted_events(), sink.dropped()).unwrap())
}

/// A replayed launch is deviant with *itemized, deterministic* skew: the
/// successful attempt's deliveries all land exactly one epoch window
/// after their planned cycles, and re-running the same seed reproduces
/// the profile bit-for-bit.
#[test]
fn replayed_launch_itemizes_one_epoch_window_of_skew() {
    let (seed, prof) = (0..64u64)
        .find_map(|s| replay_profile(s).map(|p| (s, p)))
        .expect("some seed replays without failing over");

    assert_eq!(prof.epochs.len(), 2, "two attempts, two epoch windows");
    let window = (prof.epochs[1] - prof.epochs[0]) as i64;
    assert!(window > 0);

    let Conformance::Deviant {
        matched,
        deviations,
        missing,
        duplicates,
        unplanned,
    } = &prof.conformance
    else {
        panic!("a replayed launch cannot certify: {:?}", prof.conformance);
    };
    // The clean second attempt redelivered the whole plan, one window
    // late: every planned hop appears as a deviation with skew == window.
    let planned_hops: u64 = prof.links.iter().map(|l| u64::from(l.planned)).sum();
    assert_eq!(deviations.len() as u64, planned_hops);
    for d in deviations {
        assert_eq!(d.skew, window, "replay skew is the epoch window");
        assert_eq!(d.observed as i64 - d.planned as i64, window);
    }
    // Attempt 0's partial deliveries landed on plan (skew 0) before the
    // abort, so they count as matched and re-observations as duplicates.
    assert_eq!(matched, duplicates);
    assert!(missing.is_empty(), "the replay redelivered everything");
    assert_eq!(*unplanned, 0, "no failover, so no recompiled-plan hops");

    // Determinism: the same seed reproduces the identical profile.
    assert_eq!(replay_profile(seed).unwrap(), prof);
}

/// The profiler refuses a lossy trace outright, and the executor surfaces
/// the loss as a metrics gauge so it is visible without holding the sink.
#[test]
fn lossy_traces_are_refused_and_surfaced_in_metrics() {
    let (topo, transfers) = workload();
    let (plan, payloads) = compiled(&topo, &transfers);
    let planned = plan.planned_timeline(&topo).unwrap();

    let sink = RingSink::new(4); // far too small for this run
    let args = ExecArgs {
        sink: Some(&sink),
        ..ExecArgs::default()
    };
    let report = PlanExecutor::new()
        .execute_with(&plan, &payloads, args)
        .unwrap();

    let dropped = sink.dropped();
    assert!(dropped > 0, "the tiny ring must evict");
    assert_eq!(
        profile(&planned, &sink.sorted_events(), dropped),
        Err(ProfileError::LossyTrace { dropped })
    );
    assert_eq!(report.metrics.gauge(names::TRACE_DROPPED), Some(dropped));
}

/// Certification reads the profiler's verdict off the launch record
/// (one attempt). Checks that against `profile()` itself: every batch of
/// certified serves over a clean and two marginal fabrics is relaunched,
/// in order, on an identically prepared twin runtime into a lossless
/// ring, and the twin's profile certifies exactly the batches the server
/// certified. The corpus covers clean, replayed and failed-over batches.
#[test]
fn served_verdicts_equal_the_profilers() {
    let model = |batch: u32| {
        let mut g = logical_pipeline();
        g.add(
            TspId(0),
            OpKind::Compute {
                cycles: 1_000 * batch as u64,
            },
            vec![],
        )
        .unwrap();
        g
    };
    let offered: Vec<Request> = (0..6u64)
        .map(|i| Request {
            at: i * 3_000,
            tenant: i as u32 % 2,
            model: 0,
            priority: 1,
            deadline_slack: 10_000_000,
        })
        .collect();
    let (mut replayed, mut failed_over) = (0, 0);
    for (ber, seeds) in [(0.0, 0..2), (2e-5, 0..6), (1e-4, 0..4)] {
        for seed in seeds {
            let cfg = ServeConfig {
                batch_window: 500,
                max_batch: 4,
                seed,
                certify: true,
                ..ServeConfig::default()
            };
            let mut server = Server::new(marginal_runtime(ber), cfg);
            server.add_model(model);
            let report = server.serve(&offered).unwrap();
            assert!(!report.batches.is_empty());

            let mut twin = marginal_runtime(ber);
            for b in &report.batches {
                let ring = Arc::new(RingSink::new(1 << 16));
                twin.set_trace_sink(ring.clone());
                let out = twin.launch_at(&model(b.size), b.seed, b.dispatch).unwrap();
                assert_eq!(out, b.outcome, "ber {ber} seed {seed} batch {}", b.batch);
                assert_eq!(ring.dropped(), 0);
                let planned = twin.planned_timeline().unwrap();
                let prof = profile(&planned, &ring.sorted_events(), ring.dropped()).unwrap();
                assert_eq!(
                    b.certified,
                    Some(prof.certified()),
                    "ber {ber} seed {seed} batch {}: {:?}",
                    b.batch,
                    prof.conformance
                );
                if !b.outcome.failovers.is_empty() {
                    failed_over += 1;
                } else if b.outcome.replays() > 0 {
                    replayed += 1;
                }
            }
        }
    }
    assert!(replayed > 0, "the corpus replays without failing over");
    assert!(failed_over > 0, "the corpus fails over");
}

/// A clean certified launch certifies however many trace events it
/// makes. Four 65,536-vector transfers inside node 0 deliver 2^18
/// vectors in one attempt, more events than a 2^18-entry trace ring
/// holds; a verdict profiled from such a ring reads its loss as a
/// deviant launch.
#[test]
fn clean_launch_past_two_to_the_eighteen_events_certifies() {
    let cfg = ServeConfig {
        certify: true,
        ..ServeConfig::default()
    };
    let mut server = Server::new(datapath_runtime(), cfg);
    let model = server.add_model(|_| {
        let mut g = Graph::new();
        for from in [0, 2, 4, 6] {
            g.add(
                TspId(from),
                OpKind::Transfer {
                    to: TspId(from + 1),
                    bytes: 65_536 * VECTOR_BYTES as u64,
                    allow_nonminimal: false,
                },
                vec![],
            )
            .unwrap();
        }
        g
    });
    let report = server
        .serve(&[Request {
            at: 0,
            tenant: 0,
            model,
            priority: 0,
            deadline_slack: u64::MAX,
        }])
        .unwrap();
    let b = &report.batches[0];
    assert_eq!(b.attempts, 1, "the fabric is clean");
    assert_eq!(b.certified, Some(true));
}
