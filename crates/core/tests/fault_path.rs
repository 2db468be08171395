//! End-to-end fault-path tests: real payload bytes through the BER
//! channel, FEC correction verified bit-for-bit, and the full
//! replay → blame → failover → recompile → replay loop of
//! [`Runtime::launch`] in [`ExecMode::Datapath`].
//!
//! The targeted-injection tests pin the two FEC guarantees the
//! statistical mode could only assert about *counts*:
//!
//! - any single-bit flip, on any hop of a multi-hop route, is corrected
//!   in situ and the delivered SRAM bytes verify bit-for-bit;
//! - any two flips in one packet are deterministically uncorrectable and
//!   surface with the exact (link, transfer) coordinates.
//!
//! The launch test is the paper-§4.5 acceptance scenario: a marginal
//! cable whose BER defeats SEC-DED, recovered by failover, with final
//! destination SRAM bit-identical to a fault-free run.

use std::collections::BTreeMap;
use std::sync::Arc;
use tsm_compiler::graph::{Graph, OpKind};
use tsm_core::cosim::{
    compile_plan, CompiledPlan, CosimError, ExecArgs, LinkFaultModel, PlanExecutor, TargetedFlip,
    TransferShape,
};
use tsm_core::runtime::{graph_fingerprint, ExecMode, Runtime, RuntimeError, SparePolicy};
use tsm_core::system::System;
use tsm_isa::Vector;
use tsm_topology::{LinkId, NodeId, Topology, TspId};
use tsm_trace::{names, RingSink, RunMetrics};

type Payload = Arc<Vector>;

const VECTORS: u32 = 8;
const PAYLOAD_BITS: usize = 2560;

/// A transfer between cross-node TSPs with no direct cable: the route is
/// at least two hops, so corruption can strike an intermediate link.
fn two_hop_setup() -> (CompiledPlan, Vec<Vec<Payload>>) {
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
        vectors: VECTORS,
    }];
    let plan = compile_plan(&topo, &shapes).unwrap();
    let payloads = vec![(0..VECTORS)
        .map(|v| {
            Arc::new(Vector::from_fn(|b| {
                (b as u8) ^ (31u8.wrapping_add(v as u8))
            }))
        })
        .collect()];
    (plan, payloads)
}

/// An execute in the datapath fault mode under `faults`, at `threads`
/// workers (`None`: the automatic width).
fn faulty(faults: &LinkFaultModel, threads: Option<usize>) -> ExecArgs<'_> {
    ExecArgs {
        threads,
        faults: Some(faults),
        ..ExecArgs::default()
    }
}

/// Every scheduled hop of every vector: (transfer, vector, link).
fn all_hops(plan: &CompiledPlan) -> Vec<(u32, u32, LinkId)> {
    (plan.chips().iter())
        .flat_map(|c| plan.deliveries(c))
        .map(|d| (d.vec.transfer, d.vec.vector, d.link))
        .collect()
}

#[test]
fn single_flip_on_any_hop_of_a_multi_hop_route_is_invisible() {
    let (plan, payloads) = two_hop_setup();
    let mut exec = PlanExecutor::new();
    let reference = exec.execute(&plan, &payloads).unwrap();

    let hops = all_hops(&plan);
    // the route really is multi-hop: more deliveries than vectors
    assert!(
        hops.len() > VECTORS as usize,
        "expected a forwarding hop, got {} deliveries",
        hops.len()
    );

    for &(transfer, vector, link) in &hops {
        for bit in [0usize, 1, 997, PAYLOAD_BITS - 1] {
            let faults = LinkFaultModel::targeted_only(vec![TargetedFlip {
                transfer,
                vector,
                link,
                bits: vec![bit],
            }]);
            let report = exec
                .execute_with(&plan, &payloads, faulty(&faults, None))
                .unwrap_or_else(|e| {
                    panic!("flip bit {bit} of v{vector} on {link:?} not corrected: {e}")
                });
            assert_eq!(
                report.fec().corrected,
                1,
                "exactly the struck packet repaired"
            );
            assert_eq!(report.fec().uncorrectable, 0);
            assert_eq!(
                report.dst_digests, reference.dst_digests,
                "bit {bit} of v{vector} on {link:?} leaked into destination SRAM"
            );
        }
    }
}

#[test]
fn double_flip_in_one_packet_is_deterministically_uncorrectable() {
    let (plan, payloads) = two_hop_setup();
    let mut exec = PlanExecutor::new();

    for &(transfer, vector, link) in &all_hops(&plan) {
        let faults = LinkFaultModel::targeted_only(vec![TargetedFlip {
            transfer,
            vector,
            link,
            bits: vec![3, 1200],
        }]);
        match exec.execute_with(&plan, &payloads, faulty(&faults, None)) {
            Err(CosimError::Uncorrectable {
                link: l,
                transfer: t,
                ..
            }) => {
                assert_eq!(l, link, "blamed the wrong cable");
                assert_eq!(t, transfer as usize);
            }
            other => {
                panic!("double flip of v{vector} on {link:?} must be uncorrectable, got {other:?}")
            }
        }
    }
}

/// A two-TSP logical pipeline moving 100 vectors across nodes. The
/// destination TSP is reachable only through node 1's gateway TSP plus an
/// intra-node-1 ring hop: when that node's cables go marginal, blame
/// voting sees node 1 on both faulted hops but node 0 only on the first.
fn logical_pipeline() -> Graph {
    let mut g = Graph::new();
    let a = g
        .add(TspId(0), OpKind::Compute { cycles: 1_000 }, vec![])
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

/// The PR's acceptance scenario: a marginal cable with a datapath BER that
/// defeats SEC-DED. Every launch must converge to destination SRAM
/// bit-identical to the fault-free run, and the fault must actually have
/// been exercised — replays consumed, packets corrected in situ, the
/// marginal node failed over — not sidestepped.
///
/// Scanned over seeds (the local rand stub and the real `StdRng` differ
/// numerically, so no single magic seed is portable): the bit-identity
/// invariant must hold for *every* seed; the fault-exercise profile for
/// the overwhelming majority.
#[test]
fn marginal_link_launch_recovers_bit_identical_to_fault_free() {
    // Fault-free reference digests (BER 0 everywhere).
    let reference = {
        let mut rt = datapath_runtime();
        rt.set_ber(0.0, 0.0);
        rt.launch(&logical_pipeline(), 0).unwrap()
    };
    assert_eq!(reference.dst_digests.len(), 1);
    assert!(reference.fec().is_clean_run());

    let mut exercised = 0u32;
    for seed in 0..16u64 {
        let mut rt = datapath_runtime();
        // Healthy cables perfect, the marginal ones at a BER where two
        // flips routinely land in one 2560-bit packet.
        rt.set_ber(0.0, 2e-4);
        let victim = NodeId(1);
        let marginal: Vec<LinkId> = rt
            .system()
            .topology()
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.a.node() == victim || l.b.node() == victim)
            .map(|(i, _)| LinkId(i as u32))
            .collect();
        for l in marginal {
            rt.degrade_link(l);
        }

        let out = rt.launch(&logical_pipeline(), seed).unwrap();
        // The invariant: whatever the fault pattern, the delivered SRAM
        // bytes are exactly the fault-free ones.
        assert_eq!(
            out.dst_digests, reference.dst_digests,
            "seed {seed}: corrupted bytes reached destination SRAM"
        );
        assert!(out.fec().is_clean_run(), "seed {seed}: final run not clean");

        if out.attempts() >= 2 && out.fec_total().corrected > 0 && out.failovers == vec![victim] {
            assert!(
                out.fec_total().uncorrectable > 0,
                "seed {seed}: failover without an uncorrectable packet"
            );
            exercised += 1;
        }
    }
    assert!(
        exercised >= 8,
        "only {exercised}/16 seeds exercised replay+correction+failover"
    );
}

/// Replay-only recovery: a uniform BER low enough that an uncorrectable
/// packet is transient, not persistent — some seed must recover by replay
/// alone (no failover), and every recovery must still be bit-identical.
#[test]
fn transient_uncorrectable_recovers_by_replay_alone_for_some_seed() {
    let reference = {
        let mut rt = datapath_runtime();
        rt.set_ber(0.0, 0.0);
        rt.launch(&logical_pipeline(), 0).unwrap()
    };

    let mut replay_only = 0u32;
    for seed in 0..48u64 {
        let mut rt = datapath_runtime();
        // ~100-200 packets/attempt at λ ≈ 0.026 flips/packet: double
        // flips are rare but present across the scan.
        rt.set_ber(1e-5, 1e-5);
        match rt.launch(&logical_pipeline(), seed) {
            Ok(out) => {
                assert_eq!(out.dst_digests, reference.dst_digests, "seed {seed}");
                if out.attempts() >= 2 && out.failovers.is_empty() {
                    replay_only += 1;
                }
            }
            // Statistically possible (every attempt on every mapping
            // struck): not this test's subject.
            Err(_) => continue,
        }
    }
    assert!(replay_only >= 1, "no seed recovered by replay alone");
}

/// Structural fingerprints must separate graphs the old Debug-string hash
/// ran together, and be insensitive to nothing.
#[test]
fn fingerprint_separates_field_boundary_shifts() {
    // "cycles: 12, cycles: 1" vs "cycles: 1, cycles: 21" — same digit
    // stream across the node boundary under the old format!-based hash.
    let mut a = Graph::new();
    a.add(TspId(0), OpKind::Compute { cycles: 12 }, vec![])
        .unwrap();
    a.add(TspId(0), OpKind::Compute { cycles: 1 }, vec![])
        .unwrap();
    let mut b = Graph::new();
    b.add(TspId(0), OpKind::Compute { cycles: 1 }, vec![])
        .unwrap();
    b.add(TspId(0), OpKind::Compute { cycles: 21 }, vec![])
        .unwrap();
    assert_ne!(graph_fingerprint(&a), graph_fingerprint(&b));
}

/// The `link.fec.*` counter names: every delivery of a fault-mode execute
/// lands in exactly one of them, labeled with its link.
const LINK_FEC: [&str; 4] = [
    names::LINK_CLEAN,
    names::LINK_CORRECTED,
    names::LINK_UNCORRECTABLE,
    names::LINK_DEMOTED,
];

/// The plan's deliveries per link, ascending by link.
fn deliveries_per_link(plan: &CompiledPlan) -> BTreeMap<u32, u64> {
    let mut per_link = BTreeMap::new();
    for (_, _, link) in all_hops(plan) {
        *per_link.entry(link.0).or_insert(0) += 1;
    }
    per_link
}

/// Checks that a successful fault-mode report counts each delivery once,
/// under its own link: per link, the `link.fec.*` counters sum to the
/// plan's deliveries over it, and no other link is counted.
fn assert_tallies_cover_the_plan(plan: &CompiledPlan, metrics: &RunMetrics, what: &str) {
    let mut counted = BTreeMap::new();
    for c in &metrics.counters {
        if LINK_FEC.contains(&c.name.as_str()) {
            let link = c
                .label
                .unwrap_or_else(|| panic!("{what}: unlabeled {}", c.name));
            *counted.entry(link).or_insert(0) += c.value;
        }
    }
    assert_eq!(counted, deliveries_per_link(plan), "{what}");
}

/// Every delivery of a fault-mode execute is tallied exactly once under
/// its link, whether it crossed clean (decided from its draw alone and
/// tallied per link) or built a packet, at BER 0, at the runtime's
/// default 1e-9, and with the cross-node cable marginal at 2e-4, over a
/// seed scan. An aborted execute's tally still covers every delivery.
#[test]
fn fec_tallies_count_every_delivery_once_per_link() {
    let (plan, payloads) = two_hop_setup();
    let total: u64 = deliveries_per_link(&plan).values().sum();
    let topo = Topology::fully_connected_nodes(2).unwrap();
    let cross = all_hops(&plan)
        .into_iter()
        .map(|(_, _, link)| link)
        .find(|&l| {
            let l = topo.link(l);
            l.a.node() != l.b.node()
        })
        .expect("the route crosses nodes");
    let mut exec = PlanExecutor::new();
    let (mut corrected, mut aborted) = (0, 0);
    for seed in 0..64u64 {
        let models = [
            LinkFaultModel::uniform(0.0, seed),
            LinkFaultModel::uniform(1e-9, seed),
            LinkFaultModel::uniform(1e-9, seed).with_link(cross, 2e-4),
        ];
        for faults in &models {
            let what = format!("seed {seed}, base {}", faults.base_ber);
            match exec.execute_with(&plan, &payloads, faulty(faults, None)) {
                Ok(report) => {
                    assert_tallies_cover_the_plan(&plan, &report.metrics, &what);
                    corrected += report.fec().corrected;
                }
                Err(CosimError::Uncorrectable { fec, .. }) => {
                    assert_eq!(
                        fec.clean + fec.corrected + fec.uncorrectable,
                        total,
                        "{what}"
                    );
                    aborted += 1;
                }
                Err(e) => panic!("{what}: {e}"),
            }
        }
    }
    assert!(corrected > 0, "no seed corrected a delivery");
    assert!(aborted > 0, "no seed struck a delivery uncorrectable");

    // A targeted flip is the one delivery that builds a packet.
    let (transfer, vector, link) = all_hops(&plan)[3];
    let faults = LinkFaultModel {
        targeted: vec![TargetedFlip {
            transfer,
            vector,
            link,
            bits: vec![1234],
        }],
        ..LinkFaultModel::uniform(1e-9, 5)
    };
    let report = exec
        .execute_with(&plan, &payloads, faulty(&faults, None))
        .unwrap();
    assert_tallies_cover_the_plan(&plan, &report.metrics, "targeted");
    assert_eq!(
        report.metrics.labeled(names::LINK_CORRECTED),
        vec![(link.0, 1)]
    );
}

/// At BER 0 the fault mode binds every delivery clean: its report is the
/// fault-free execute's plus the clean tallies, serially and in parallel.
#[test]
fn zero_ber_fault_mode_reports_what_execute_reports() {
    let (plan, payloads) = two_hop_setup();
    let mut exec = PlanExecutor::new();
    let reference = exec.execute(&plan, &payloads).unwrap();
    let without_fec = |mut r: tsm_core::cosim::CosimReport| {
        r.metrics
            .counters
            .retain(|c| !c.name.starts_with("link.fec."));
        r
    };
    for seed in 0..8 {
        let faults = LinkFaultModel::uniform(0.0, seed);
        for report in [
            exec.execute_with(&plan, &payloads, faulty(&faults, None))
                .unwrap(),
            exec.execute_with(&plan, &payloads, faulty(&faults, Some(1)))
                .unwrap(),
        ] {
            assert_tallies_cover_the_plan(&plan, &report.metrics, "BER 0");
            assert_eq!(
                report.metrics.counter(names::LINK_CLEAN),
                all_hops(&plan).len() as u64
            );
            assert_eq!(without_fec(report), reference);
        }
    }
}

/// A fault model that gives a crossed link a rate outside [0, 1) is
/// refused with a typed error naming that link, serially and in
/// parallel, instead of panicking inside the channel. A base rate names
/// the first delivery's link in bind order.
#[test]
fn out_of_range_link_rates_are_typed_errors() {
    let (plan, payloads) = two_hop_setup();
    let (_, _, first) = all_hops(&plan)[0];
    let (_, _, last) = *all_hops(&plan).last().unwrap();
    let cases = [
        (LinkFaultModel::uniform(1.0, 0), first),
        (LinkFaultModel::uniform(f64::NAN, 0), first),
        (LinkFaultModel::uniform(-0.5, 0), first),
        (LinkFaultModel::uniform(1e-9, 0).with_link(last, 1.0), last),
    ];
    let mut exec = PlanExecutor::new();
    for (faults, named) in &cases {
        for result in [
            exec.execute_with(&plan, &payloads, faulty(faults, None)),
            exec.execute_with(&plan, &payloads, faulty(faults, Some(1))),
        ] {
            match result {
                Err(CosimError::BitErrorRate { link, ber }) => {
                    assert_eq!(link, *named);
                    assert_eq!(ber.to_bits(), faults.ber_for(link).to_bits());
                }
                other => panic!("{faults:?}: expected BitErrorRate, got {other:?}"),
            }
        }
    }
    // The executor is not left in a bad state.
    exec.execute_with(
        &plan,
        &payloads,
        faulty(&LinkFaultModel::uniform(1e-9, 0), None),
    )
    .unwrap();
}

/// A targeted flip at or past the payload's 2,560 bits is refused with a
/// typed error naming the flip and its first such bit, serially and in
/// parallel, before anything is bound or traced, instead of panicking
/// inside the channel. A flip past the payload is refused even where it
/// names no delivery of the plan.
#[test]
fn out_of_range_targeted_flips_are_typed_errors() {
    let (plan, payloads) = two_hop_setup();
    let (transfer, vector, link) = all_hops(&plan)[0];
    let flip = |bits: Vec<usize>| TargetedFlip {
        transfer,
        vector,
        link,
        bits,
    };
    let cases = [
        (vec![flip(vec![PAYLOAD_BITS])], PAYLOAD_BITS),
        (vec![flip(vec![7, usize::MAX, 5000])], usize::MAX),
        (
            vec![
                flip(vec![3]),
                TargetedFlip {
                    vector: VECTORS,
                    ..flip(vec![PAYLOAD_BITS + 1])
                },
            ],
            PAYLOAD_BITS + 1,
        ),
    ];
    let mut exec = PlanExecutor::new();
    for (flips, bit) in cases {
        let faults = LinkFaultModel::targeted_only(flips);
        let named = faults.targeted.last().unwrap();
        for threads in [Some(1), Some(2), None] {
            let sink = RingSink::new(1 << 12);
            let args = ExecArgs {
                sink: Some(&sink),
                ..faulty(&faults, threads)
            };
            match exec.execute_with(&plan, &payloads, args) {
                Err(CosimError::FlipOutOfRange {
                    transfer: t,
                    vector: v,
                    link: l,
                    bit: b,
                }) => {
                    assert_eq!(
                        (t, v, l, b),
                        (named.transfer, named.vector, named.link, bit)
                    );
                }
                other => panic!("{faults:?}: expected FlipOutOfRange, got {other:?}"),
            }
            assert!(sink.events().is_empty(), "refused execute traced");
        }
    }
    // The executor is not left in a bad state.
    let last = LinkFaultModel::targeted_only(vec![flip(vec![PAYLOAD_BITS - 1])]);
    let report = exec
        .execute_with(&plan, &payloads, faulty(&last, None))
        .unwrap();
    assert_eq!(report.fec().corrected, 1);
}

/// `Runtime::set_ber` stores any value; a launch refuses an out-of-range
/// base or marginal rate at admission with a typed error, in both exec
/// modes, before it compiles or traces anything. Once the rates are
/// valid again the same runtime launches cleanly.
#[test]
fn out_of_range_runtime_rates_are_refused_at_admission() {
    let cases = [
        (1.0, 1e-4, "base"),
        (f64::NAN, 1e-4, "base"),
        (-0.5, 1e-4, "base"),
        (1e-9, 1.0, "marginal"),
    ];
    for mode in [ExecMode::Statistical, ExecMode::Datapath] {
        for (base, marginal, which) in cases {
            let sink = Arc::new(RingSink::new(1 << 12));
            let mut rt = Runtime::new(System::with_nodes(4).unwrap(), SparePolicy::PerSystem)
                .with_exec_mode(mode);
            rt.set_trace_sink(sink.clone());
            // The pipeline crosses node 1's cables, so a marginal rate
            // reaches a channel too.
            let victim: Vec<LinkId> = rt
                .system()
                .topology()
                .links()
                .iter()
                .enumerate()
                .filter(|(_, l)| l.a.node() == NodeId(1) || l.b.node() == NodeId(1))
                .map(|(i, _)| LinkId(i as u32))
                .collect();
            for l in victim {
                rt.degrade_link(l);
            }
            rt.set_ber(base, marginal);
            match rt.launch(&logical_pipeline(), 3) {
                Err(RuntimeError::BitErrorRate { rate, ber }) => {
                    assert_eq!(rate, which, "{mode:?}");
                    let want = if which == "base" { base } else { marginal };
                    assert_eq!(ber.to_bits(), want.to_bits(), "{mode:?}");
                }
                other => panic!("{mode:?} {base}/{marginal}: expected BitErrorRate, got {other:?}"),
            }
            assert!(sink.events().is_empty(), "{mode:?}: refused launch traced");
            assert!(
                rt.residency().resident().is_empty(),
                "{mode:?}: refused launch compiled"
            );
            rt.set_ber(1e-9, 0.0);
            let out = rt.launch(&logical_pipeline(), 3).unwrap();
            assert_eq!(out.attempts(), 1, "{mode:?}");
            assert!(!sink.events().is_empty(), "{mode:?}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Ops encoded as (device, kind selector, parameter); deps chain each
    /// node to its predecessor so every graph is valid.
    fn build_graph(ops: &[(u8, u8, u64)]) -> Graph {
        let mut g = Graph::new();
        let mut prev = None;
        for &(dev, kind, param) in ops {
            let device = TspId(u32::from(dev % 8));
            let kind = match kind % 4 {
                0 => OpKind::Compute { cycles: param },
                1 => OpKind::Transfer {
                    to: TspId(u32::from(dev % 8) + 8),
                    bytes: param,
                    allow_nonminimal: param % 2 == 0,
                },
                2 => OpKind::HostInput { bytes: param },
                _ => OpKind::HostOutput { bytes: param },
            };
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(g.add(device, kind, deps).unwrap());
        }
        g
    }

    /// Canonical structural encoding (field-separated, unlike the old
    /// Debug-string concatenation) used to decide whether two generated
    /// graphs are actually distinct.
    fn canon(g: &Graph) -> String {
        g.nodes()
            .iter()
            .map(|n| format!("{:?}|{:?}|{:?}", n.device, n.kind, n.deps))
            .collect::<Vec<_>>()
            .join("\u{1f}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Distinct graphs fingerprint differently (the compile cache
        /// must never alias two programs).
        #[test]
        fn distinct_graphs_fingerprint_differently(
            a in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 1..8),
            b in proptest::collection::vec((any::<u8>(), any::<u8>(), 0u64..1_000_000), 1..8),
        ) {
            let (ga, gb) = (build_graph(&a), build_graph(&b));
            if canon(&ga) != canon(&gb) {
                prop_assert_ne!(graph_fingerprint(&ga), graph_fingerprint(&gb));
            } else {
                prop_assert_eq!(graph_fingerprint(&ga), graph_fingerprint(&gb));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any single-bit flip on any hop of the multi-hop route is
        /// corrected and the delivered bytes verify bit-for-bit; adding a
        /// second flip to the same packet is deterministically
        /// uncorrectable on that exact hop.
        #[test]
        fn random_flip_corrected_second_flip_uncorrectable(
            hop_sel in any::<prop::sample::Index>(),
            bit in 0usize..PAYLOAD_BITS,
            second in 0usize..PAYLOAD_BITS,
        ) {
            let (plan, payloads) = two_hop_setup();
            let mut exec = PlanExecutor::new();
            let reference = exec.execute(&plan, &payloads).unwrap();
            let hops = all_hops(&plan);
            let (transfer, vector, link) = hops[hop_sel.index(hops.len())];

            let single = LinkFaultModel::targeted_only(vec![TargetedFlip {
                transfer, vector, link, bits: vec![bit],
            }]);
            let report = exec.execute_with(&plan, &payloads, faulty(&single, None)).unwrap();
            prop_assert_eq!(report.fec().corrected, 1);
            prop_assert_eq!(report.dst_digests, reference.dst_digests);

            if second != bit {
                let double = LinkFaultModel::targeted_only(vec![TargetedFlip {
                    transfer, vector, link, bits: vec![bit, second],
                }]);
                match exec.execute_with(&plan, &payloads, faulty(&double, None)) {
                    Err(CosimError::Uncorrectable { link: l, transfer: t, .. }) => {
                        prop_assert_eq!(l, link);
                        prop_assert_eq!(t, transfer as usize);
                    }
                    other => prop_assert!(false, "expected Uncorrectable, got {:?}", other),
                }
            }
        }
    }
}
