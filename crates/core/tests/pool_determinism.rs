//! Parallel-execution determinism contract: for ANY worker count — more
//! workers than chips, fewer workers than chips, odd widths, a different
//! width on every call to one executor, executes that fail in a chip — the
//! parallel engine's report AND its trace event stream are bit-identical to
//! the serial engine's. The compile-time shard partition, the scoped
//! threads and the spine-side merge are the parallel executor; these tests
//! are its oracle.

use std::sync::Arc;
use tsm_core::cosim::exec::TSM_THREADS_ENV;
use tsm_core::cosim::{
    compile_plan, CompiledPlan, CosimError, CosimTransfer, ExecArgs, LinkFaultModel, PlanExecutor,
    TransferShape,
};
use tsm_isa::Vector;
use tsm_topology::{Topology, TspId};
use tsm_trace::{RingSink, TraceEvent};

use proptest::prelude::*;

type Payload = Arc<Vector>;

/// Raw generator output for one transfer: TSP picks are taken modulo the
/// topology size, `to` is offset past `from` so the endpoints differ.
type RawTransfer = (u32, u32, u8, u8, usize, u8);

fn raw_transfer() -> impl Strategy<Value = RawTransfer> {
    (0u32..24, 0u32..23, 0u8..8, 0u8..8, 1usize..=20, any::<u8>())
}

/// Materializes raw generator output against a concrete topology. SRAM
/// regions are spaced 32 offsets apart (> max vector count), so distinct
/// transfers never overlap in any chip's memory.
fn build_transfers(topo: &Topology, raw: &[RawTransfer]) -> Vec<CosimTransfer> {
    let tsps = topo.num_tsps() as u32;
    raw.iter()
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
        .collect()
}

/// One traced run at an explicit worker count (1 is the serial reference
/// semantics); returns the report result and the canonical
/// `(cycle, lane, seq)`-ordered event stream.
#[allow(clippy::type_complexity)]
fn traced_run_with_threads(
    plan: &CompiledPlan,
    payloads: &[Vec<Payload>],
    threads: usize,
    faults: Option<&LinkFaultModel>,
) -> (
    Result<tsm_core::cosim::CosimReport, tsm_core::cosim::CosimError>,
    Vec<TraceEvent>,
) {
    let sink = RingSink::new(1 << 16);
    let args = ExecArgs {
        threads: Some(threads),
        faults,
        sink: Some(&sink),
        ..ExecArgs::default()
    };
    let report = PlanExecutor::new().execute_with(plan, payloads, args);
    assert_eq!(sink.dropped(), 0, "ring must be large enough for the run");
    (report, sink.sorted_events())
}

/// An execute at `threads` workers, nothing else set.
fn at_width(threads: usize) -> ExecArgs<'static> {
    ExecArgs {
        threads: Some(threads),
        ..ExecArgs::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized workloads × randomized worker counts (1, even, odd,
    /// far more than any level holds): report and trace equal the serial
    /// engine's bit for bit. Random multi-transfer workloads produce
    /// uneven hop-depth levels, so worker counts both above and below the
    /// level populations are continuously exercised.
    #[test]
    fn any_worker_count_matches_serial(
        nodes in 2usize..=3,
        raw in prop::collection::vec(raw_transfer(), 1..=6),
        threads in 1usize..=33,
    ) {
        let topo = Topology::fully_connected_nodes(nodes).expect("topology builds");
        let transfers = build_transfers(&topo, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let Ok(plan) = compile_plan(&topo, &shapes) else { return Ok(()) };
        let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

        let (want, want_events) = traced_run_with_threads(&plan, &payloads, 1, None);
        let (got, got_events) = traced_run_with_threads(&plan, &payloads, threads, None);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&got_events, &want_events);
        prop_assert!(!want_events.is_empty(), "instrumented run records events");
    }

    /// The same contract under datapath BER injection: corruption happens
    /// in the serial bind phase, so no worker count may perturb it.
    #[test]
    fn any_worker_count_matches_serial_under_faults(
        raw in prop::collection::vec(raw_transfer(), 1..=4),
        threads in 2usize..=9,
        ber_seed in any::<u64>(),
    ) {
        let topo = Topology::fully_connected_nodes(3).expect("topology builds");
        let transfers = build_transfers(&topo, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let Ok(plan) = compile_plan(&topo, &shapes) else { return Ok(()) };
        let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();
        let faults = LinkFaultModel::uniform(1e-6, ber_seed);

        let (want, want_events) =
            traced_run_with_threads(&plan, &payloads, 1, Some(&faults));
        let (got, got_events) =
            traced_run_with_threads(&plan, &payloads, threads, Some(&faults));
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_events, want_events);
    }

    /// One executor re-used across a different worker count on every call
    /// stays bit-identical throughout.
    #[test]
    fn width_changes_on_a_live_executor_stay_identical(
        raw in prop::collection::vec(raw_transfer(), 1..=4),
        widths in prop::collection::vec(1usize..=12, 2..=4),
    ) {
        let topo = Topology::fully_connected_nodes(2).expect("topology builds");
        let transfers = build_transfers(&topo, &raw);
        let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
        let Ok(plan) = compile_plan(&topo, &shapes) else { return Ok(()) };
        let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

        let mut reference = PlanExecutor::new();
        let want = reference.execute_serial(&plan, &payloads);
        let mut exec = PlanExecutor::new();
        for w in widths {
            prop_assert_eq!(&exec.execute_with(&plan, &payloads, at_width(w)), &want);
        }
    }
}

/// A deep (multi-hop, uneven-level) workload on a 2-rack dragonfly, so
/// levels of very different populations are covered.
fn dragonfly_workload() -> (CompiledPlan, Vec<Vec<Payload>>) {
    let topo = Topology::rack_dragonfly(2).expect("topology builds");
    let raw: Vec<RawTransfer> = vec![
        (0, 140, 1, 2, 12, 0x5a),
        (77, 3, 0, 4, 7, 0x21),
        (139, 64, 3, 3, 20, 0xe7),
        (23, 23, 5, 1, 1, 0x80),
    ];
    let transfers = build_transfers(&topo, &raw);
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads = transfers.iter().map(CosimTransfer::payload).collect();
    (plan, payloads)
}

/// Deterministic pin of the extremes on a fixed workload: 1 worker, a few
/// odd widths, and a width far beyond the chip count all reproduce the
/// serial report and trace exactly.
#[test]
fn fixed_workload_all_widths_identical() {
    let (plan, payloads) = dragonfly_workload();
    let (want, want_events) = traced_run_with_threads(&plan, &payloads, 1, None);
    want.as_ref().expect("fixed workload executes");
    for threads in [1usize, 2, 3, 5, 8, 64, 1000] {
        let (got, got_events) = traced_run_with_threads(&plan, &payloads, threads, None);
        assert_eq!(got, want, "report diverged at {threads} workers");
        assert_eq!(
            got_events, want_events,
            "trace diverged at {threads} workers"
        );
    }
}

/// Chip-phase errors at every width. Every delivery is bound from the
/// plan, so chips deeper than a failing one still run in a parallel
/// execute; the merge must still report the serial error, the first in
/// (depth, TspId) order, with the serial trace. Moving the first emission
/// of a depth-0 chip and of the deepest emitting chip off schedule must
/// name the depth-0 chip at every width; moving only the deep chip's must
/// name the deep chip.
#[test]
fn chip_errors_are_identical_serially_and_at_every_width() {
    let (plan, payloads) = dragonfly_workload();
    let emitting = |i: &usize| !plan.chips[*i].emissions.is_empty();
    let shallow = plan.levels[0]
        .iter()
        .map(|&i| i as usize)
        .find(emitting)
        .expect("a source chip emits");
    let deep = (0..plan.chips.len())
        .filter(emitting)
        .max_by_key(|&i| plan.chips[i].depth)
        .expect("some chip emits");
    assert!(
        plan.chips[deep].depth >= 2,
        "the deep chip sits levels below the shallow one"
    );

    for (corrupt, culprit) in [(vec![shallow, deep], shallow), (vec![deep], deep)] {
        let mut bad = plan.clone();
        for &i in &corrupt {
            bad.chips[i].emissions[0].cycle += 1;
        }
        let (want, want_events) = traced_run_with_threads(&bad, &payloads, 1, None);
        match &want {
            Err(CosimError::EmissionMismatch { tsp, .. }) => {
                assert_eq!(*tsp, plan.chips[culprit].tsp, "serial names the culprit")
            }
            other => panic!("expected an emission mismatch, got {other:?}"),
        }
        for threads in [1usize, 2, 3, 8, 1000] {
            let (got, got_events) = traced_run_with_threads(&bad, &payloads, threads, None);
            assert_eq!(got, want, "error diverged at {threads} workers");
            assert_eq!(
                got_events, want_events,
                "trace diverged at {threads} workers"
            );
        }
    }
}

/// Worker-count resolution precedence: an execute's explicit width is
/// used as given, zero clamped to 1, whatever `TSM_THREADS` says; the
/// automatic width follows `TSM_THREADS`, else auto-detection, and
/// malformed and zero env values fall through to auto. The only test in
/// this binary that touches the environment.
#[test]
fn thread_resolution_precedence() {
    std::env::remove_var(TSM_THREADS_ENV);
    let exec = PlanExecutor::new();
    let auto = exec.resolved_threads();
    assert!(auto >= 1);
    assert_eq!(ExecArgs::default().width(), auto);

    std::env::set_var(TSM_THREADS_ENV, "7");
    assert_eq!(exec.resolved_threads(), 7);
    assert_eq!(ExecArgs::default().width(), 7);
    assert_eq!(at_width(3).width(), 3);
    assert_eq!(at_width(0).width(), 1, "zero clamps to 1");

    for bad in ["0", "-4", "lots", ""] {
        std::env::set_var(TSM_THREADS_ENV, bad);
        assert_eq!(
            exec.resolved_threads(),
            auto,
            "env value {bad:?} must fall back to auto"
        );
        assert_eq!(ExecArgs::default().width(), auto);
        assert_eq!(at_width(3).width(), 3);
    }
    std::env::remove_var(TSM_THREADS_ENV);
    assert_eq!(exec.resolved_threads(), auto);
}

/// Parallel executes actually run on their threads: a 2-worker run on a
/// many-chip level completes (the shard partition covers every chip),
/// re-executes bit-identically, and the executor can be dropped and
/// rebuilt without hanging.
#[test]
fn pool_lifecycle_smoke() {
    let topo = Topology::fully_connected_nodes(3).expect("topology builds");
    let raw: Vec<RawTransfer> = (0..6)
        .map(|i| {
            (
                i * 5,
                i * 3 + 1,
                (i % 8) as u8,
                ((i + 2) % 8) as u8,
                4,
                i as u8,
            )
        })
        .collect();
    let transfers = build_transfers(&topo, &raw);
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

    for _ in 0..3 {
        let mut exec = PlanExecutor::new();
        let a = exec.execute_with(&plan, &payloads, at_width(2)).unwrap();
        let b = exec.execute_with(&plan, &payloads, at_width(2)).unwrap();
        assert_eq!(a, b, "warm re-execution is bit-identical");
        drop(exec); // no thread outlives an execute; must not hang
    }
}
