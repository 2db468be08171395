//! Fault-path integration: FEC statistics flow through execution, replay
//! absorbs transient faults, and hot-spare failover keeps a compiled
//! program runnable.

use tsm::fault::spare::SparePlan;
use tsm::prelude::*;

fn transfer_graph(bytes: u64) -> Graph {
    let mut g = Graph::new();
    g.add(
        TspId(0),
        OpKind::Transfer {
            to: TspId(1),
            bytes,
            allow_nonminimal: true,
        },
        vec![],
    )
    .unwrap();
    g
}

#[test]
fn clean_links_report_clean_runs() {
    let sys = System::single_node().with_config(SystemConfig {
        bit_error_rate: 0.0,
        ..Default::default()
    });
    let g = transfer_graph(1 << 20);
    let p = sys.compile(&g, CompileOptions::default()).unwrap();
    let r = sys.execute_with_graph(&p, &g, 0);
    assert!(r.succeeded);
    let fec = r.fec();
    assert_eq!(fec.corrected, 0);
    assert_eq!(fec.uncorrectable, 0);
    assert!(fec.clean > 3000, "1 MiB is ~3300 vectors: {}", fec.clean);
}

#[test]
fn single_bit_errors_are_invisible_to_the_application() {
    let sys = System::single_node().with_config(SystemConfig {
        bit_error_rate: 2e-7,
        ..Default::default()
    });
    let g = transfer_graph(4 << 20);
    let p = sys.compile(&g, CompileOptions::default()).unwrap();
    let r = sys.execute_with_graph(&p, &g, 1);
    assert!(r.succeeded);
    assert!(
        r.fec().corrected > 0,
        "expected in-situ corrections: {:?}",
        r.fec()
    );
    assert_eq!(r.replays(), 0, "corrected errors must not trigger replay");
    // and timing is untouched: FEC is constant-latency
    assert_eq!(r.measured_cycles, r.estimated_cycles);
}

#[test]
fn uncorrectable_errors_consume_replays() {
    let sys = System::single_node().with_config(SystemConfig {
        bit_error_rate: 2e-4,
        max_replays: 2,
    });
    let g = transfer_graph(1 << 20);
    let p = sys.compile(&g, CompileOptions::default()).unwrap();
    let r = sys.execute_with_graph(&p, &g, 2);
    // At this BER every run sees multi-bit errors: the budget exhausts.
    assert!(!r.succeeded);
    assert_eq!(r.replays(), 2);
    // The report carries the tally of the final, failed attempt: the
    // uncorrectable packets that failed it, among all it sent.
    assert!(r.fec().uncorrectable > 0, "{:?}", r.fec());
    assert!(r.fec().total() > 0);
}

/// A transient fault: an uncorrectable packet in one run that a replay
/// runs clean. Scanned over seeds, since no single seed is portable
/// between RNGs: some seed must recover, and every recovery reports the
/// clean replay's tally, 1 ≤ replays ≤ the budget, and one whole
/// inference of measured time per attempt.
#[test]
fn transient_faults_recover_on_a_replay() {
    let budget = 3;
    let sys = System::single_node().with_config(SystemConfig {
        bit_error_rate: 1e-5,
        max_replays: budget,
    });
    let g = transfer_graph(1 << 20);
    let p = sys.compile(&g, CompileOptions::default()).unwrap();
    let mut recovered = 0;
    for seed in 0..32 {
        let r = sys.execute_with_graph(&p, &g, seed);
        if r.succeeded && r.replays() > 0 {
            assert!(r.replays() <= budget, "seed {seed}: {}", r.replays());
            assert_eq!(r.fec().uncorrectable, 0, "seed {seed}");
            assert!(r.fec().corrected > 0, "seed {seed}: the clean run corrects");
            assert_eq!(
                r.measured_cycles,
                r.estimated_cycles * (u64::from(r.replays()) + 1),
                "seed {seed}"
            );
            recovered += 1;
        }
    }
    assert!(recovered >= 1, "no seed recovered on a replay");
}

#[test]
fn failover_then_recompile_runs_on_the_spare() {
    // A node dies; the spare takes its logical place; the *recompiled*
    // program routes around the failure and executes.
    let mut sys = System::with_nodes(4).unwrap();
    let mut plan = SparePlan::per_system(sys.topology());
    assert_eq!(plan.logical_nodes(), 3);

    let spare = plan.fail_over(sys.topology_mut(), NodeId(1)).unwrap();
    assert_eq!(spare, NodeId(3));
    assert!(plan.verify_connectivity(sys.topology()));

    // Logical program: TSP on logical node 0 sends to logical node 1 —
    // physically now node 3.
    let src = plan.physical_tsp(TspId(0));
    let dst = plan.physical_tsp(TspId(8)); // logical node 1, slot 0
    assert_eq!(dst, TspId(24));
    let mut g = Graph::new();
    g.add(
        src,
        OpKind::Transfer {
            to: dst,
            bytes: 320_000,
            allow_nonminimal: true,
        },
        vec![],
    )
    .unwrap();
    let p = sys.compile(&g, CompileOptions::default()).unwrap();
    // no path may touch the failed node
    for res in p.occupancy.reservations() {
        let link = sys.topology().link(res.link);
        assert_ne!(link.a.node(), NodeId(1));
        assert_ne!(link.b.node(), NodeId(1));
    }
    let r = sys.execute_with_graph(&p, &g, 4);
    assert!(r.succeeded);
}

#[test]
fn spare_exhaustion_is_surfaced() {
    let mut sys = System::with_nodes(3).unwrap();
    let mut plan = SparePlan::per_system(sys.topology());
    plan.fail_over(sys.topology_mut(), NodeId(0)).unwrap();
    let second = plan.fail_over(sys.topology_mut(), NodeId(1));
    assert!(
        second.is_err(),
        "second failure must report no spare available"
    );
}
