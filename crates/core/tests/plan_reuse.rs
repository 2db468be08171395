//! Compile-once / execute-many contract tests: a [`CompiledPlan`] bound to
//! payloads via [`PlanExecutor`] must be bit-identical to the one-shot
//! engine, reusable across payload sets without state leakage, and
//! round-trippable through its JSON form.

use std::sync::Arc;
use tsm_core::cosim::{
    compile_plan, run_transfers, run_transfers_serial, CompiledPlan, CosimTransfer, PlanExecutor,
    TransferShape,
};
use tsm_isa::Vector;
use tsm_topology::{Topology, TspId};

use proptest::prelude::*;

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
    let topo = Topology::fully_connected_nodes(nodes).expect("topology builds");
    let tsps = (nodes * tsm_topology::TSPS_PER_NODE) as u32;
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

/// XORs every payload byte, producing a second payload set with the same
/// shape but disjoint bytes.
fn perturb(transfers: &[CosimTransfer]) -> Vec<CosimTransfer> {
    transfers
        .iter()
        .map(|tr| {
            let mut tr = tr.clone();
            tr.data = tr
                .data
                .iter()
                .map(|v| v.xor(&Vector::splat(0xA5)))
                .collect();
            tr
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The explicit plan/executor pipeline produces exactly the result of
    /// the one-shot engine — success or typed error — on arbitrary
    /// workloads, serial and parallel alike.
    #[test]
    fn plan_execute_is_bit_identical_to_one_shot(
        nodes in 2usize..=3,
        raw in prop::collection::vec(raw_transfer(), 1..=6),
    ) {
        let (topo, transfers) = build_transfers(nodes, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

        let legacy_serial = run_transfers_serial(&topo, &transfers);
        let legacy_parallel = run_transfers(&topo, &transfers);
        match compile_plan(&topo, &shapes) {
            Err(e) => {
                // Compile-stage failures surface identically on the wrapper.
                prop_assert_eq!(legacy_serial, Err(e.clone()));
                prop_assert_eq!(legacy_parallel, Err(e));
            }
            Ok(plan) => {
                let mut executor = PlanExecutor::new();
                prop_assert_eq!(&executor.execute_serial(&plan, &payloads), &legacy_serial);
                prop_assert_eq!(&executor.execute(&plan, &payloads), &legacy_parallel);
                // the reused executor stays bit-identical run over run
                prop_assert_eq!(&executor.execute(&plan, &payloads), &legacy_parallel);
            }
        }
    }

    /// Re-executing one plan with a different payload set behaves exactly
    /// like a fresh engine run of those payloads: nothing leaks from the
    /// previous invocation's SRAM, streams, queues, or emissions.
    #[test]
    fn plan_reuse_leaks_no_state_between_payload_sets(
        nodes in 2usize..=3,
        raw in prop::collection::vec(raw_transfer(), 1..=6),
    ) {
        let (topo, transfers) = build_transfers(nodes, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let Ok(plan) = compile_plan(&topo, &shapes) else { return Ok(()) };

        let first: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();
        let perturbed = perturb(&transfers);
        let second: Vec<_> = perturbed.iter().map(CosimTransfer::payload).collect();

        let mut reused = PlanExecutor::new();
        let _ = reused.execute(&plan, &first);
        let warm = reused.execute(&plan, &second);
        let fresh = PlanExecutor::new().execute(&plan, &second);
        prop_assert_eq!(warm, fresh);
    }
}

/// A plan survives serialize → deserialize → execute with the same report
/// as the in-memory original (the artifact is genuinely shippable).
#[test]
fn serde_round_trip_plan_executes_identically() {
    let topo = Topology::fully_connected_nodes(2).unwrap();
    let transfers: Vec<CosimTransfer> = (0..4u32)
        .map(|i| CosimTransfer {
            from: TspId(i),
            to: TspId(15 - i),
            src_slice: 1,
            src_offset: (i * 64) as u16,
            dst_slice: 2,
            dst_offset: (i * 64) as u16,
            data: (0..8 + i as usize)
                .map(|v| Vector::from_fn(|b| (b as u8).wrapping_mul(3) ^ (i as u8 + v as u8)))
                .collect(),
        })
        .collect();
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(&topo, &shapes).unwrap();

    let json = plan.to_json();
    let revived = CompiledPlan::from_json(&json).unwrap();
    assert_eq!(revived, plan);

    let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();
    let want = PlanExecutor::new().execute(&plan, &payloads).unwrap();
    let got = PlanExecutor::new().execute(&revived, &payloads).unwrap();
    assert_eq!(got, want);
}

/// One executor can serve multiple distinct plans back to back.
#[test]
fn one_executor_serves_many_plans() {
    let topo = Topology::single_node();
    let make = |to: u32, n: usize| CosimTransfer {
        from: TspId(0),
        to: TspId(to),
        src_slice: 0,
        src_offset: 0,
        dst_slice: 1,
        dst_offset: 0,
        data: (0..n).map(|v| Vector::splat(v as u8 + to as u8)).collect(),
    };
    let mut executor = PlanExecutor::new();
    for (to, n) in [(1u32, 4usize), (5, 9), (2, 1)] {
        let tr = make(to, n);
        let shapes = [TransferShape::from(&tr)];
        let plan = compile_plan(&topo, &shapes).unwrap();
        let report = executor.execute(&plan, &[tr.payload()]).unwrap();
        assert_eq!(report.arrivals.len(), 1);
        assert_eq!(report, run_transfers(&topo, &[tr]).unwrap());
    }
}

/// Shared `Arc` payloads are not mutated by execution: the same handles
/// bind to a second invocation bit-exactly.
#[test]
fn payload_handles_are_reusable() {
    let topo = Topology::single_node();
    let tr = CosimTransfer {
        from: TspId(3),
        to: TspId(4),
        src_slice: 2,
        src_offset: 10,
        dst_slice: 3,
        dst_offset: 20,
        data: (0..6)
            .map(|v| Vector::from_fn(|b| b as u8 ^ v as u8))
            .collect(),
    };
    let shapes = [TransferShape::from(&tr)];
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads = vec![tr.payload()];
    let handles: Vec<usize> = payloads[0]
        .iter()
        .map(|p| Arc::as_ptr(p) as usize)
        .collect();
    let mut executor = PlanExecutor::new();
    let a = executor.execute(&plan, &payloads).unwrap();
    let b = executor.execute(&plan, &payloads).unwrap();
    assert_eq!(a, b);
    let after: Vec<usize> = payloads[0]
        .iter()
        .map(|p| Arc::as_ptr(p) as usize)
        .collect();
    assert_eq!(handles, after);
}
