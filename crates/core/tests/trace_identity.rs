//! Trace determinism contract: the event set a run records is a pure
//! function of (plan, payloads, fault model) — identical between serial
//! and parallel execution — and attaching a disabled sink leaves the
//! simulation bit-identical to an uninstrumented run.

use std::sync::Arc;
use tsm_core::cosim::{
    compile_plan, CompiledPlan, CosimError, CosimReport, CosimTransfer, ExecArgs, LinkFaultModel,
    PlanExecutor, TransferShape,
};
use tsm_isa::Vector;
use tsm_topology::{Topology, TspId};
use tsm_trace::{EventKind, NullSink, RingSink, TraceEvent, TraceSink};

use proptest::prelude::*;

type Payload = Arc<Vector>;

/// Raw generator output for one transfer: TSP picks are taken modulo the
/// topology size, `to` is offset past `from` so the endpoints differ.
type RawTransfer = (u32, u32, u8, u8, usize, u8);

fn raw_transfer() -> impl Strategy<Value = RawTransfer> {
    (0u32..16, 0u32..15, 0u8..8, 0u8..8, 1usize..=20, any::<u8>())
}

/// Materializes raw generator output against a concrete topology. SRAM
/// regions are spaced 32 offsets apart (> max vector count), so distinct
/// transfers never overlap in any chip's memory.
fn build_transfers(nodes: usize, raw: &[RawTransfer]) -> (Topology, Vec<CosimTransfer>) {
    let topo = if nodes <= 1 {
        Topology::single_node()
    } else {
        Topology::fully_connected_nodes(nodes).expect("topology builds")
    };
    let tsps = (nodes.max(1) * tsm_topology::TSPS_PER_NODE) as u32;
    let transfers = raw
        .iter()
        .enumerate()
        .map(|(idx, &(f, t, src_slice, dst_slice, vectors, seed))| {
            let from = f % tsps;
            let rest = t % (tsps - 1);
            let to = if rest >= from { rest + 1 } else { rest };
            CosimTransfer {
                from: TspId(from),
                to: TspId(to),
                src_slice,
                src_offset: (idx * 32) as u16,
                dst_slice,
                dst_offset: (idx * 32) as u16,
                data: (0..vectors)
                    .map(|v| {
                        Vector::from_fn(|b| (b as u8) ^ seed.wrapping_add((idx * 31 + v) as u8))
                    })
                    .collect(),
            }
        })
        .collect();
    (topo, transfers)
}

/// Runs `plan`+`payloads` with a fresh ring sink and returns the recorded
/// events, merged into the canonical `(cycle, lane, seq)` order.
fn traced_run(
    plan: &CompiledPlan,
    payloads: &[Vec<Payload>],
    parallel: bool,
    faults: Option<&LinkFaultModel>,
) -> Vec<TraceEvent> {
    let sink = RingSink::new(1 << 16);
    let args = ExecArgs {
        threads: (!parallel).then_some(1),
        faults,
        sink: Some(&sink),
        ..ExecArgs::default()
    };
    let _ = PlanExecutor::new().execute_with(plan, payloads, args);
    assert_eq!(sink.dropped(), 0, "ring must be large enough for the run");
    sink.sorted_events()
}

/// Executes `plan`+`payloads` on a fresh executor, tracing into `sink`.
fn execute_into(
    plan: &CompiledPlan,
    payloads: &[Vec<Payload>],
    sink: &dyn TraceSink,
) -> Result<CosimReport, CosimError> {
    let args = ExecArgs {
        sink: Some(sink),
        ..ExecArgs::default()
    };
    PlanExecutor::new().execute_with(plan, payloads, args)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serial and parallel execution record the *same* event set on
    /// arbitrary topologies and payload mixes — the tentpole determinism
    /// guarantee, fault-free and under uniform BER injection.
    #[test]
    fn serial_and_parallel_traces_are_identical(
        nodes in 2usize..=3,
        raw in prop::collection::vec(raw_transfer(), 1..=6),
        ber_seed in any::<u64>(),
    ) {
        let (topo, transfers) = build_transfers(nodes, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let Ok(plan) = compile_plan(&topo, &shapes) else { return Ok(()) };
        let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

        let serial = traced_run(&plan, &payloads, false, None);
        let parallel = traced_run(&plan, &payloads, true, None);
        prop_assert_eq!(&serial, &parallel);
        prop_assert!(!serial.is_empty(), "instrumented run records events");

        let faults = LinkFaultModel::uniform(1e-6, ber_seed);
        let serial_f = traced_run(&plan, &payloads, false, Some(&faults));
        let parallel_f = traced_run(&plan, &payloads, true, Some(&faults));
        prop_assert_eq!(serial_f, parallel_f);
    }

    /// A `NullSink` (and no sink at all) leaves the simulation output
    /// bit-identical to a `RingSink`-instrumented run: tracing observes,
    /// never perturbs.
    #[test]
    fn sinks_never_perturb_the_simulation(
        nodes in 2usize..=3,
        raw in prop::collection::vec(raw_transfer(), 1..=6),
    ) {
        let (topo, transfers) = build_transfers(nodes, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let Ok(plan) = compile_plan(&topo, &shapes) else { return Ok(()) };
        let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

        let bare = PlanExecutor::new().execute(&plan, &payloads);
        prop_assert_eq!(&execute_into(&plan, &payloads, &NullSink), &bare);
        prop_assert_eq!(&execute_into(&plan, &payloads, &RingSink::new(1 << 16)), &bare);
    }
}

/// Deterministic (non-proptest) pin of the same contract, so the suite
/// still exercises it under the offline proptest stub.
#[test]
fn fixed_workload_serial_parallel_trace_identity() {
    let raw: Vec<RawTransfer> = vec![
        (0, 9, 1, 2, 12, 0x5a),
        (7, 3, 0, 4, 7, 0x21),
        (14, 14, 3, 3, 20, 0xe7),
        (2, 0, 5, 1, 1, 0x80),
    ];
    let (topo, transfers) = build_transfers(2, &raw);
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

    let serial = traced_run(&plan, &payloads, false, None);
    let parallel = traced_run(&plan, &payloads, true, None);
    assert_eq!(serial, parallel);
    assert!(!serial.is_empty());

    // Per-chip spans cover every chip the plan touches (execution-order
    // agnostic: compare as sorted lane sets).
    let mut exec_lanes: Vec<u32> = serial
        .iter()
        .filter(|e| matches!(e.kind, EventKind::ChipExec { .. }))
        .map(|e| e.lane)
        .collect();
    exec_lanes.sort_unstable();
    let mut chip_lanes: Vec<u32> = plan.chips().iter().map(|c| c.tsp.0).collect();
    chip_lanes.sort_unstable();
    assert_eq!(exec_lanes, chip_lanes);

    // And the same workload under BER injection.
    let faults = LinkFaultModel::uniform(2e-6, 41);
    let serial_f = traced_run(&plan, &payloads, false, Some(&faults));
    let parallel_f = traced_run(&plan, &payloads, true, Some(&faults));
    assert_eq!(serial_f, parallel_f);
}

/// Events come out of the ring already unique and totally ordered by the
/// `(cycle, lane, seq)` merge key.
#[test]
fn trace_keys_are_unique_and_ordered() {
    let raw: Vec<RawTransfer> = vec![(0, 9, 1, 2, 12, 0x5a), (7, 3, 0, 4, 7, 0x21)];
    let (topo, transfers) = build_transfers(1, &raw);
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

    let events = traced_run(&plan, &payloads, true, None);
    for pair in events.windows(2) {
        assert!(pair[0].key() < pair[1].key(), "strictly ascending keys");
    }
}

/// A `NullSink` run is bit-identical to an uninstrumented run on a fixed
/// workload (digest-level pin for the stubbed-proptest environment).
#[test]
fn fixed_workload_null_sink_is_invisible() {
    let raw: Vec<RawTransfer> = vec![(3, 11, 2, 6, 16, 0x33), (9, 1, 7, 0, 5, 0x4c)];
    let (topo, transfers) = build_transfers(2, &raw);
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

    let bare = PlanExecutor::new().execute(&plan, &payloads).unwrap();
    let nulled = execute_into(&plan, &payloads, &NullSink).unwrap();
    assert_eq!(nulled, bare);
    assert_eq!(nulled.dst_digests, bare.dst_digests);

    let ringed = execute_into(&plan, &payloads, &RingSink::new(1 << 16));
    assert_eq!(ringed.unwrap(), bare);
}
