//! Co-simulation record: the canonical workload and the scaling curve.
//!
//! One canonical workload — a 2-node system with 16 concurrent multi-hop
//! transfers (every TSP sources one flow to a non-adjacent TSP on the
//! other node, so each flow forwards through an intermediate chip) — runs
//! through both one-shot engines and the compile-once pipeline, once
//! under the conformance profiler, and [`FAULT_INVOCATIONS`] times over a
//! marginal fabric. [`measure_scaling`] runs the same engine up the
//! paper's deployment ladder — 16, 72, 288, and 10,440 chips (§2.2's
//! 145-rack system) — checking report bit-identity *and* trace identity
//! at every point.
//!
//! Every field is simulated, so the record `repro bench-cosim` writes to
//! `BENCH_cosim.json` is a pure function of the code. Host time has one
//! source, the outside-in benchmark under `benchmark/`.

use std::collections::HashSet;
use tsm::core::cosim::{
    compile_plan, run_transfers, run_transfers_serial, CosimError, CosimTransfer, ExecArgs,
    LinkFaultModel, PlanExecutor, TransferShape,
};
use tsm::fault::inject::FecStats;
use tsm::isa::Vector;
use tsm::topology::{ScaleRegime, Topology, TspId, NODES_PER_RACK};
use tsm::trace::profile::profile;
use tsm::trace::{JsonWriter, RingSink, RunMetrics};

/// Builds the canonical benchmark workload: 16 concurrent multi-hop
/// transfers on a 2-node fully-connected system. Destinations are chosen
/// deterministically (first unused non-adjacent cross-node TSP), so the
/// workload — and therefore the measured schedule — is identical on every
/// run and every machine.
pub fn workload() -> (Topology, Vec<CosimTransfer>) {
    let topo = Topology::fully_connected_nodes(2).expect("two nodes");
    let mut taken: HashSet<TspId> = HashSet::new();
    let transfers: Vec<CosimTransfer> = (0..16u32)
        .map(|i| {
            let from = TspId(i);
            let to = topo
                .tsps()
                .find(|&t| {
                    t.node() != from.node()
                        && !taken.contains(&t)
                        && topo.links_between(from, t).is_empty()
                })
                .expect("non-adjacent cross-node peer");
            taken.insert(to);
            CosimTransfer {
                from,
                to,
                src_slice: 0,
                src_offset: (i * 32) as u16,
                dst_slice: 2,
                dst_offset: (i * 32) as u16,
                data: (0..8 + (i as usize % 4))
                    .map(|v| {
                        Vector::from_fn(|b| {
                            (b as u8) ^ (i as u8).wrapping_mul(31).wrapping_add(v as u8)
                        })
                    })
                    .collect(),
            }
        })
        .collect();
    (topo, transfers)
}

/// Derives the human-readable workload description from the actual system
/// parameters, so the string recorded in `BENCH_cosim.json` can never
/// drift from the topology and transfer count that were measured.
pub fn workload_label(topo: &Topology, transfers: usize) -> String {
    let system = match topo.regime() {
        ScaleRegime::SingleNode => "single-node".to_string(),
        ScaleRegime::TorusNode => "single-node torus".to_string(),
        ScaleRegime::FullyConnectedNodes => {
            format!("{}-node fully-connected", topo.num_nodes())
        }
        ScaleRegime::RackDragonfly => {
            format!("{}-rack dragonfly", topo.num_nodes() / NODES_PER_RACK)
        }
    };
    format!("{system}, {transfers} concurrent multi-hop transfers")
}

/// Chip counts swept by [`measure_scaling`]: the canonical 2-node system,
/// a 9-node fully-connected group, a 4-rack Dragonfly, and the paper's
/// full 145-rack deployment (§2.2: 145 × 9 × 8 = 10,440 TSPs).
pub const SCALING_CHIPS: &[usize] = &[16, 72, 288, 10_440];

/// Builds the half-stride scaling workload for `topo`: TSP `i` streams two
/// vectors to TSP `i + N/2`, so every chip is an endpoint of exactly one
/// transfer and every flow crosses nodes (the half-stride exceeds a node
/// for every swept topology). Fully deterministic, so the measured
/// schedule is identical on every run and every machine.
fn paired_workload(topo: &Topology) -> Vec<CosimTransfer> {
    let half = (topo.num_tsps() / 2) as u32;
    (0..half)
        .map(|i| CosimTransfer {
            from: TspId(i),
            to: TspId(i + half),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 2,
            dst_offset: 0,
            data: (0..2u8)
                .map(|v| {
                    Vector::from_fn(|b| (b as u8) ^ (i as u8).wrapping_mul(29).wrapping_add(v))
                })
                .collect(),
        })
        .collect()
}

/// The system and workload for one point of the scaling sweep.
fn scale_system(chips: usize) -> (Topology, Vec<CosimTransfer>) {
    match chips {
        16 => workload(),
        72 => {
            let topo = Topology::fully_connected_nodes(9).expect("nine nodes");
            let transfers = paired_workload(&topo);
            (topo, transfers)
        }
        288 => {
            let topo = Topology::rack_dragonfly(4).expect("four racks");
            let transfers = paired_workload(&topo);
            (topo, transfers)
        }
        10_440 => {
            let topo = Topology::rack_dragonfly(145).expect("145 racks");
            let transfers = paired_workload(&topo);
            (topo, transfers)
        }
        other => unreachable!("no scaling workload defined for {other} chips"),
    }
}

/// One point on the engine's scaling curve.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Chips in the system (the half-stride workload touches all of them).
    pub chips: usize,
    /// Workload description derived from the measured system parameters.
    pub workload: String,
    /// Concurrent transfers in flight.
    pub transfers: usize,
    /// Instructions lowered across all chips.
    pub instructions: usize,
    /// FNV-1a of the plan's [`CompiledPlan::to_json`], so the record pins
    /// every compiled plan of the curve byte for byte.
    ///
    /// [`CompiledPlan::to_json`]: tsm::core::cosim::CompiledPlan::to_json
    pub plan_digest: u64,
    /// Whether a reused serial execute and a parallel execute (at the
    /// automatic worker count, below the grain too) both matched the
    /// first serial report bit for bit.
    pub bit_identical: bool,
    /// Whether the serial and parallel trace event streams were
    /// byte-identical at this scale.
    pub trace_identical: bool,
}

/// Runs the scaling curve up to `max_chips` (pass `usize::MAX` for the
/// full 10,440-chip ladder, a smaller bound for a fast pass). Each point
/// compiles its plan once, executes it serially, serially again on the
/// reused executor and in parallel, and records report bit-identity and
/// serial≡parallel trace identity at that scale. The parallel executes
/// pass the automatic worker count as an explicit width, so a plan below
/// the executor's grain still splits.
pub fn measure_scaling(max_chips: usize) -> Vec<ScalePoint> {
    SCALING_CHIPS
        .iter()
        .copied()
        .filter(|&chips| chips <= max_chips)
        .map(|chips| {
            let (topo, transfers) = scale_system(chips);
            assert_eq!(topo.num_tsps(), chips, "scale table out of sync");
            let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
            let plan = compile_plan(&topo, &shapes).expect("scaling workload compiles");
            let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();

            let mut exec = PlanExecutor::new();
            let reference = exec
                .execute_serial(&plan, &payloads)
                .expect("serial scale run");
            let reused = exec
                .execute_serial(&plan, &payloads)
                .expect("reused serial scale run");
            let width = exec.resolved_threads();
            let split = ExecArgs {
                threads: Some(width),
                ..ExecArgs::default()
            };
            let parallel = exec
                .execute_with(&plan, &payloads, split)
                .expect("parallel scale run");
            let bit_identical = reused == reference && parallel == reference;

            // Trace identity at this scale: both engines must record
            // byte-identical event streams.
            let capacity = (reference.instructions * 4 + chips * 8).next_power_of_two();
            let mut traced = |parallel: bool| {
                let sink = RingSink::new(capacity);
                let args = ExecArgs {
                    threads: Some(if parallel { width } else { 1 }),
                    sink: Some(&sink),
                    ..ExecArgs::default()
                };
                exec.execute_with(&plan, &payloads, args)
                    .expect("traced scale run");
                assert_eq!(sink.dropped(), 0, "trace ring sized for the run");
                sink.sorted_events()
            };
            let serial_events = traced(false);
            let parallel_events = traced(true);
            let trace_identical = !serial_events.is_empty() && serial_events == parallel_events;

            ScalePoint {
                chips,
                workload: workload_label(&topo, transfers.len()),
                transfers: transfers.len(),
                instructions: reference.instructions,
                plan_digest: fnv1a(plan.to_json().as_bytes()),
                bit_identical,
                trace_identical,
            }
        })
        .collect()
}

/// The co-simulation record of the canonical workload.
#[derive(Debug, Clone)]
pub struct CosimBenchResult {
    /// Workload description, derived from the measured system by
    /// [`workload_label`] rather than hard-coded prose.
    pub workload: String,
    /// Transfers in the workload.
    pub transfers: usize,
    /// Chips that executed a program.
    pub chips: usize,
    /// Instructions lowered across all chips.
    pub instructions: usize,
    /// Whether the one-shot serial and parallel reports and the
    /// compile-once reports (the first execute on a fresh executor and a
    /// reused execute), destination SRAM digests included, were
    /// bit-identical.
    pub bit_identical: bool,
    /// Replays consumed by uncorrectable-aborted attempts across the
    /// [`FAULT_INVOCATIONS`] faulty invocations at [`FAULT_BER`]
    /// (deterministic: seeds derive from the invocation index).
    pub fault_replays: u64,
    /// FEC tally across the faulty invocations, replays included.
    pub fault_stats: FecStats,
    /// Whether every recovered faulty invocation delivered destination
    /// SRAM digests bit-identical to the fault-free reference.
    pub fault_bit_identical: bool,
    /// Whether the profiled execute came back
    /// [`Conformance::Certified`] — the canonical workload is fault-free,
    /// so anything else is a conformance regression.
    ///
    /// [`Conformance::Certified`]: tsm::trace::Conformance::Certified
    pub profile_certified: bool,
    /// The profiled execute's bottleneck summary
    /// ([`LaunchProfile::summary_json`]): verdict, per-link utilization,
    /// critical path — embedded in `BENCH_cosim.json`.
    ///
    /// [`LaunchProfile::summary_json`]: tsm::trace::LaunchProfile::summary_json
    pub profile_summary: String,
    /// Metrics snapshot of one reused execute of the canonical workload
    /// (instruction/delivery counters, retire-cycle histogram).
    pub run_metrics: RunMetrics,
    /// The engine's scaling curve (empty unless [`measure_scaling`] was
    /// run and its points attached, as `repro bench-cosim` does).
    pub scaling: Vec<ScalePoint>,
}

impl CosimBenchResult {
    /// Writes the co-simulation record and its scaling curve as fields of
    /// the open top-level object of `BENCH_cosim.json`.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_str("bench", "cosim_throughput")
            .field_str("workload", &self.workload)
            .field_u64("transfers", self.transfers as u64)
            .field_u64("chips", self.chips as u64)
            .field_u64("instructions", self.instructions as u64);
        w.key("bit_identical").bool(self.bit_identical);
        w.field_raw("fault_ber", &format!("{FAULT_BER:e}"))
            .field_u64("fault_invocations", u64::from(FAULT_INVOCATIONS))
            .field_u64("fault_replays", self.fault_replays)
            .field_u64("fault_corrected", self.fault_stats.corrected)
            .field_u64("fault_uncorrectable", self.fault_stats.uncorrectable);
        w.key("fault_bit_identical").bool(self.fault_bit_identical);
        w.key("profile_certified").bool(self.profile_certified);
        w.key("scaling").begin_array();
        for p in &self.scaling {
            w.begin_object()
                .field_u64("chips", p.chips as u64)
                .field_str("workload", &p.workload)
                .field_u64("transfers", p.transfers as u64)
                .field_u64("instructions", p.instructions as u64)
                .field_str("plan_digest", &format!("{:016x}", p.plan_digest));
            w.key("bit_identical").bool(p.bit_identical);
            w.key("trace_identical").bool(p.trace_identical);
            w.end_object();
        }
        w.end_array();
        w.field_raw("profile", &indent_block(&self.profile_summary, 2))
            .field_raw("metrics", &indent_block(&self.run_metrics.to_json(), 2));
    }
}

/// Re-indents every line after the first by `n` extra spaces, so a
/// pretty-printed sub-object nests readably inside the bench record: 2
/// for a top-level field, 4 for a field of a top-level block.
pub(crate) fn indent_block(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    let mut out = String::with_capacity(s.len());
    for (i, line) in s.lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str(&pad);
        }
        out.push_str(line);
    }
    out
}

/// FNV-1a over `bytes`, the digest the plan pins use.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Faulty invocations of the canonical workload.
pub const FAULT_INVOCATIONS: u32 = 50;

/// Uniform BER for the faulty invocations: ~0.026 expected flips per
/// 2560-bit packet, so single-bit corrections are routine and the
/// occasional double flip exercises the uncorrectable replay path.
pub const FAULT_BER: f64 = 1e-5;

/// Replay budget backstop for the faulty invocations (a runaway here
/// would mean the BER maths are off by orders of magnitude).
const FAULT_REPLAY_CAP: u64 = 64;

/// Runs the canonical workload through both one-shot engines and the
/// compile-once / execute-many pipeline, profiles one execute, and
/// drives [`FAULT_INVOCATIONS`] invocations over a [`FAULT_BER`] fabric
/// with replay.
pub fn measure() -> CosimBenchResult {
    let (topo, transfers) = workload();
    let reference = run_transfers_serial(&topo, &transfers).expect("workload schedules cleanly");
    let parallel = run_transfers(&topo, &transfers).expect("parallel run");

    // Compile once, then execute on a fresh executor and again on the
    // reused one: both must reproduce the one-shot report.
    let shapes: Vec<TransferShape> = transfers.iter().map(TransferShape::from).collect();
    let payloads: Vec<_> = transfers.iter().map(CosimTransfer::payload).collect();
    let plan = compile_plan(&topo, &shapes).expect("plan compiles");
    let mut executor = PlanExecutor::new();
    let first = executor
        .execute_serial(&plan, &payloads)
        .expect("first execute");
    let reused = executor
        .execute_serial(&plan, &payloads)
        .expect("reused execute");
    let bit_identical = parallel == reference && first == reference && reused == reference;

    // One profiled execute: a lossless RingSink plus the plan-vs-actual
    // conformance join over its events.
    let sink = RingSink::new(1 << 14);
    let profiled = ExecArgs {
        threads: Some(1),
        sink: Some(&sink),
        ..ExecArgs::default()
    };
    executor
        .execute_with(&plan, &payloads, profiled)
        .expect("profiled execute");
    let prof = profile(
        &plan.planned_timeline(&topo).expect("compiled on topo"),
        &sink.sorted_events(),
        sink.dropped(),
    )
    .expect("lossless ring profiles");

    // Faulty: the same plan and payloads with every delivery crossing its
    // link's BER channel. Uncorrectable attempts replay with a fresh
    // derived seed, mirroring the runtime's recovery loop. Seeds derive
    // from the invocation index, so the flip pattern — and the tally — is
    // identical on every run and every machine.
    let mut fault_replays = 0u64;
    let mut fault_stats = FecStats::default();
    let mut fault_bit_identical = true;
    for inv in 0..FAULT_INVOCATIONS {
        let mut attempt = 0u64;
        loop {
            let faults = LinkFaultModel::uniform(FAULT_BER, (u64::from(inv) << 16) | attempt);
            let serial = ExecArgs {
                threads: Some(1),
                faults: Some(&faults),
                ..ExecArgs::default()
            };
            match executor.execute_with(&plan, &payloads, serial) {
                Ok(rep) => {
                    fault_stats = fault_stats.merge(&rep.fec());
                    fault_bit_identical &= rep.dst_digests == reference.dst_digests;
                    break;
                }
                Err(CosimError::Uncorrectable { fec, .. }) => {
                    fault_stats = fault_stats.merge(&fec);
                    fault_replays += 1;
                    attempt += 1;
                    assert!(attempt < FAULT_REPLAY_CAP, "fault replay runaway");
                }
                Err(e) => panic!("faulty execute: {e}"),
            }
        }
    }
    CosimBenchResult {
        workload: workload_label(&topo, transfers.len()),
        transfers: transfers.len(),
        chips: reference.retire_cycles.len(),
        instructions: reference.instructions,
        bit_identical,
        fault_replays,
        fault_stats,
        fault_bit_identical,
        profile_certified: prof.certified(),
        profile_summary: prof.summary_json(),
        run_metrics: reused.metrics,
        scaling: Vec::new(),
    }
}

/// Printable report lines for the `repro` binary.
pub fn lines_for(r: &CosimBenchResult) -> Vec<String> {
    let mut out = vec![
        format!("workload: {}", r.workload),
        format!(
            "{} transfers over {} chips, {} instructions lowered",
            r.transfers, r.chips, r.instructions
        ),
        format!(
            "one-shot serial == parallel == compile-once, fresh and reused executor (bit-identical): {}",
            r.bit_identical
        ),
        format!(
            "profiled execute: {}",
            if r.profile_certified {
                "CERTIFIED"
            } else {
                "DEVIANT — conformance regression"
            }
        ),
        format!(
            "faulty (BER {:e}, {}x): {} corrected, {} uncorrectable, {} replays",
            FAULT_BER,
            FAULT_INVOCATIONS,
            r.fault_stats.corrected,
            r.fault_stats.uncorrectable,
            r.fault_replays,
        ),
        format!(
            "faulty recoveries == fault-free digests (bit-identical): {}",
            r.fault_bit_identical
        ),
    ];
    if !r.scaling.is_empty() {
        out.push("scaling curve (compile once; serial, reused and parallel execute):".to_string());
    }
    for p in &r.scaling {
        out.push(format!(
            "  {:>6} chips ({}): {:>7} instructions, plan {:016x}, bit_identical={} trace_identical={}",
            p.chips, p.workload, p.instructions, p.plan_digest, p.bit_identical, p.trace_identical
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_workload_is_multi_hop_and_deterministic() {
        let (topo, transfers) = workload();
        assert_eq!(transfers.len(), 16);
        for tr in &transfers {
            // every flow must forward through at least one intermediate chip
            assert!(topo.links_between(tr.from, tr.to).is_empty());
        }
        let (_, again) = workload();
        for (a, b) in transfers.iter().zip(again.iter()) {
            assert_eq!((a.from, a.to, &a.data), (b.from, b.to, &b.data));
        }
    }

    #[test]
    fn workload_label_is_derived_from_system_parameters() {
        let (topo, transfers) = workload();
        // The derived label reproduces the exact string the bench record
        // carried when it was hard-coded prose.
        assert_eq!(
            workload_label(&topo, transfers.len()),
            "2-node fully-connected, 16 concurrent multi-hop transfers"
        );
        let rack = Topology::rack_dragonfly(4).expect("four racks");
        assert_eq!(
            workload_label(&rack, 144),
            "4-rack dragonfly, 144 concurrent multi-hop transfers"
        );
    }

    #[test]
    fn scaling_workloads_pair_every_chip_across_nodes() {
        for &chips in SCALING_CHIPS.iter().filter(|&&c| c <= 288) {
            let (topo, transfers) = scale_system(chips);
            assert_eq!(topo.num_tsps(), chips);
            let mut endpoints: Vec<TspId> = Vec::new();
            for tr in &transfers {
                assert_ne!(tr.from.node(), tr.to.node(), "flow must cross nodes");
                endpoints.push(tr.from);
                endpoints.push(tr.to);
            }
            endpoints.sort_unstable();
            endpoints.dedup();
            assert_eq!(endpoints.len(), chips, "every chip is an endpoint once");
        }
    }

    #[test]
    fn scaling_smoke_points_are_identical_across_engines() {
        let points = measure_scaling(100);
        assert_eq!(points.len(), 2, "smoke bound covers 16 and 72 chips");
        assert_eq!(points[0].chips, 16);
        assert_eq!(points[1].chips, 72);
        for p in &points {
            assert!(p.bit_identical, "{} chips: reports diverged", p.chips);
            assert!(p.trace_identical, "{} chips: traces diverged", p.chips);
            assert!(p.instructions > 0);
        }
    }

    #[test]
    fn measure_reports_bit_identical_engines() {
        let r = measure();
        assert!(r.bit_identical);
        assert!(r.instructions > 0);
        let json = crate::render(|w| {
            w.begin_object();
            r.write_fields(w);
            w.end_object();
        });
        assert!(json.contains(
            "\"workload\": \"2-node fully-connected, 16 concurrent multi-hop transfers\""
        ));
        assert!(json.contains("\"scaling\": []"));
        assert!(json.contains("\"bit_identical\": true"));
        assert!(json.contains("\"fault_replays\""));
        assert!(json.contains("\"fault_bit_identical\": true"));
        assert!(json.contains("\"cosim.instructions\""));
        // The canonical fault-free workload certifies when profiled, and
        // its bottleneck summary rides into the record.
        assert!(r.profile_certified);
        assert!(json.contains("\"verdict\": \"certified\""));
        assert!(json.contains("\"critical_path\""));
        assert!(json.contains("\"top_links\""));
        // The metrics snapshot describes the canonical workload.
        assert_eq!(
            r.run_metrics.counter("cosim.instructions"),
            r.instructions as u64
        );
        // corruption must actually have been exercised and repaired
        assert!(r.fault_stats.corrected > 0);
        assert!(r.fault_bit_identical);
    }
}
