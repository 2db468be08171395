//! Parallel-execution determinism contract: for ANY worker count — more
//! workers than chips, fewer workers than chips, odd widths, a different
//! width on every call to one executor, the automatic width on either side
//! of the grain, executes that fail in a chip or lose a delivery — the
//! parallel engine's report AND its trace event stream are bit-identical to
//! the serial engine's. The compile-time work-rank shards, the per-chip
//! jobs on scoped threads and the spine-side replay are the parallel
//! executor; these tests are its oracle.

use std::sync::Arc;
use tsm_core::cosim::exec::{EXEC_GRAIN, TSM_THREADS_ENV};
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

/// One traced run at a worker count (`Some(1)` is the serial reference
/// semantics, `None` the automatic width); returns the report result and
/// the canonical `(cycle, lane, seq)`-ordered event stream.
#[allow(clippy::type_complexity)]
fn traced_run_with_threads(
    plan: &CompiledPlan,
    payloads: &[Vec<Payload>],
    threads: Option<usize>,
    faults: Option<&LinkFaultModel>,
) -> (
    Result<tsm_core::cosim::CosimReport, tsm_core::cosim::CosimError>,
    Vec<TraceEvent>,
) {
    let sink = RingSink::new(1 << 16);
    let args = ExecArgs {
        threads,
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

        let (want, want_events) = traced_run_with_threads(&plan, &payloads, Some(1), None);
        let (got, got_events) = traced_run_with_threads(&plan, &payloads, Some(threads), None);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(&got_events, &want_events);
        prop_assert!(!want_events.is_empty(), "instrumented run records events");
    }

    /// The same contract under datapath BER injection: every delivery's
    /// corruption is keyed by (seed, link, transfer, vector), whichever
    /// thread binds it, so no worker count may perturb it.
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
            traced_run_with_threads(&plan, &payloads, Some(1), Some(&faults));
        let (got, got_events) =
            traced_run_with_threads(&plan, &payloads, Some(threads), Some(&faults));
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
    let (want, want_events) = traced_run_with_threads(&plan, &payloads, Some(1), None);
    want.as_ref().expect("fixed workload executes");
    for threads in [1usize, 2, 3, 5, 8, 64, 1000] {
        let (got, got_events) = traced_run_with_threads(&plan, &payloads, Some(threads), None);
        assert_eq!(got, want, "report diverged at {threads} workers");
        assert_eq!(
            got_events, want_events,
            "trace diverged at {threads} workers"
        );
    }
}

/// `plan` with the first emission each chip in `late` promises moved one
/// cycle later, as its plan document edited and loaded.
fn with_late_emissions(plan: &CompiledPlan, late: &[usize]) -> CompiledPlan {
    let mut doc = plan.to_json();
    // Each chip's object has one emissions array, in chip order.
    let starts: Vec<usize> = (doc.match_indices("\"emissions\": ["))
        .map(|(at, _)| at)
        .collect();
    let mut late = late.to_vec();
    // From the last chip back, so an edit moves no start still to edit.
    late.sort_unstable_by(|a, b| b.cmp(a));
    for chip in late {
        let key = "\"cycle\": ";
        let at = starts[chip] + doc[starts[chip]..].find(key).expect("the chip emits") + key.len();
        let end = at + doc[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        let cycle: u64 = doc[at..end].parse().unwrap();
        doc.replace_range(at..end, &(cycle + 1).to_string());
    }
    CompiledPlan::from_json(&doc).expect("a late emission loads")
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
    let chips = plan.chips();
    let emitting = |i: &usize| !plan.emissions(&chips[*i]).is_empty();
    let shallow = (0..chips.len())
        .filter(|&i| chips[i].depth == 0)
        .find(emitting)
        .expect("a source chip emits");
    let deep = (0..chips.len())
        .filter(emitting)
        .max_by_key(|&i| chips[i].depth)
        .expect("some chip emits");
    assert!(
        chips[deep].depth >= 2,
        "the deep chip sits levels below the shallow one"
    );

    for (corrupt, culprit) in [(vec![shallow, deep], shallow), (vec![deep], deep)] {
        let bad = with_late_emissions(&plan, &corrupt);
        let (want, want_events) = traced_run_with_threads(&bad, &payloads, Some(1), None);
        match &want {
            Err(CosimError::EmissionMismatch { tsp, .. }) => {
                assert_eq!(*tsp, chips[culprit].tsp, "serial names the culprit")
            }
            other => panic!("expected an emission mismatch, got {other:?}"),
        }
        for threads in [1usize, 2, 3, 8, 1000] {
            let (got, got_events) = traced_run_with_threads(&bad, &payloads, Some(threads), None);
            assert_eq!(got, want, "error diverged at {threads} workers");
            assert_eq!(
                got_events, want_events,
                "trace diverged at {threads} workers"
            );
        }
    }
}

/// Six two-hop transfers across two nodes, `vectors` long each, every
/// chip sending or receiving at most one: a plan whose instruction count
/// grows by a fixed step per vector.
fn six_transfers(vectors: usize) -> (CompiledPlan, Vec<Vec<Payload>>) {
    let topo = Topology::fully_connected_nodes(2).expect("topology builds");
    let transfers: Vec<CosimTransfer> = (0..6u32)
        .map(|i| CosimTransfer {
            from: TspId(i),
            to: TspId(9 + i),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 1,
            dst_offset: 0,
            data: (0..vectors)
                .map(|v| Vector::from_fn(|b| (b as u8) ^ (i as u8).wrapping_mul(37) ^ v as u8))
                .collect(),
        })
        .collect();
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let plan = compile_plan(&topo, &shapes).expect("six transfers compile");
    let payloads = transfers.iter().map(CosimTransfer::payload).collect();
    (plan, payloads)
}

/// [`six_transfers`] as long as it can be and stay under [`EXEC_GRAIN`]
/// instructions, or as short as it can be and reach it.
fn grain_plan(over: bool) -> (CompiledPlan, Vec<Vec<Payload>>) {
    let step = six_transfers(1).0.instructions;
    let vectors = if over {
        EXEC_GRAIN.div_ceil(step)
    } else {
        (EXEC_GRAIN - 1) / step
    };
    let (plan, payloads) = six_transfers(vectors);
    assert_eq!(plan.instructions, step * vectors, "a fixed step per vector");
    assert_eq!(plan.instructions >= EXEC_GRAIN, over);
    (plan, payloads)
}

/// Runs `plan` at the automatic width and at explicit widths 1–5, each
/// into its own ring, and asserts each run's report or error — metrics,
/// FEC tally and culprits included — and trace, `seq` included, equal the
/// serial run's, which it returns.
fn assert_every_width_is_serial(
    plan: &CompiledPlan,
    payloads: &[Vec<Payload>],
    faults: Option<&LinkFaultModel>,
) -> Result<tsm_core::cosim::CosimReport, CosimError> {
    let (want, want_events) = traced_run_with_threads(plan, payloads, Some(1), faults);
    assert!(!want_events.is_empty(), "the serial run records events");
    for threads in [None, Some(1), Some(2), Some(3), Some(4), Some(5)] {
        let (got, got_events) = traced_run_with_threads(plan, payloads, threads, faults);
        assert_eq!(got, want, "report diverged at {threads:?} workers");
        assert!(
            got_events == want_events,
            "trace diverged at {threads:?} workers"
        );
    }
    want
}

/// Plans either side of the grain — serial at the automatic width below
/// it, split at and above it — give the serial run's report, error and
/// trace at the automatic width and at widths 1–5: clean; at a BER that
/// loses deliveries and so aborts the attempt; and with one emitting chip
/// moved off schedule, in the first shard of each width and again in the
/// last.
#[test]
fn plans_either_side_of_the_grain_match_serial_at_every_width() {
    for over in [false, true] {
        let (plan, payloads) = grain_plan(over);
        let clean = assert_every_width_is_serial(&plan, &payloads, None);
        clean.expect("the clean plan executes");

        let lossy = LinkFaultModel::uniform(1e-4, 11);
        match assert_every_width_is_serial(&plan, &payloads, Some(&lossy)) {
            Err(CosimError::Uncorrectable { fec, culprits, .. }) => {
                assert!(fec.uncorrectable > 0 && fec.corrected > 0, "{fec:?}");
                assert!(!culprits.is_empty());
            }
            other => panic!("expected a lost delivery, got {other:?}"),
        }

        let chips = plan.chips();
        let emitting: Vec<usize> = (0..chips.len())
            .filter(|&i| !plan.emissions(&chips[i]).is_empty())
            .collect();
        for width in 1..=5u32 {
            let in_shard = |shard: u32| {
                let mut emitters = emitting
                    .iter()
                    .copied()
                    .filter(|&i| chips[i].shard() % width == shard);
                emitters.next().expect("every shard holds an emitting chip")
            };
            for culprit in [in_shard(0), in_shard(width - 1)] {
                let bad = with_late_emissions(&plan, &[culprit]);
                let (want, want_events) = traced_run_with_threads(&bad, &payloads, Some(1), None);
                match &want {
                    Err(CosimError::EmissionMismatch { tsp, .. }) => {
                        assert_eq!(*tsp, chips[culprit].tsp)
                    }
                    other => panic!("expected an emission mismatch, got {other:?}"),
                }
                for threads in [None, Some(width as usize)] {
                    let (got, got_events) = traced_run_with_threads(&bad, &payloads, threads, None);
                    assert_eq!(got, want, "error diverged at {threads:?} workers");
                    assert!(
                        got_events == want_events,
                        "trace diverged at {threads:?} workers"
                    );
                }
            }
        }
    }
}

/// Worker-count resolution precedence: an execute's explicit width is
/// used as given, zero clamped to 1, whatever `TSM_THREADS` says or the
/// plan's size; the automatic width runs a plan below [`EXEC_GRAIN`]
/// instructions on one thread, and any other at `TSM_THREADS`, else
/// auto-detection, malformed and zero env values falling through to auto.
/// The only test in this binary that touches the environment.
#[test]
fn thread_resolution_precedence() {
    let (small, _) = grain_plan(false);
    let (large, _) = grain_plan(true);
    std::env::remove_var(TSM_THREADS_ENV);
    let exec = PlanExecutor::new();
    let auto = exec.resolved_threads();
    assert!(auto >= 1);
    assert_eq!(ExecArgs::default().width(&large), auto);
    assert_eq!(ExecArgs::default().width(&small), 1);

    std::env::set_var(TSM_THREADS_ENV, "7");
    assert_eq!(exec.resolved_threads(), 7);
    assert_eq!(ExecArgs::default().width(&large), 7);
    assert_eq!(ExecArgs::default().width(&small), 1, "too small to split");
    for plan in [&small, &large] {
        assert_eq!(at_width(3).width(plan), 3);
        assert_eq!(at_width(0).width(plan), 1, "zero clamps to 1");
    }

    for bad in ["0", "-4", "lots", ""] {
        std::env::set_var(TSM_THREADS_ENV, bad);
        assert_eq!(
            exec.resolved_threads(),
            auto,
            "env value {bad:?} must fall back to auto"
        );
        assert_eq!(ExecArgs::default().width(&large), auto);
        assert_eq!(ExecArgs::default().width(&small), 1);
        assert_eq!(at_width(3).width(&small), 3);
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
