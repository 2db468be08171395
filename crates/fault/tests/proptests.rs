//! Property-based tests for fault handling.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tsm_fault::inject::inject_schedule_with;
use tsm_fault::spare::SparePlan;
use tsm_net::ssn::LinkOccupancy;
use tsm_topology::route::shortest_path;
use tsm_topology::{NodeId, Topology, TspId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FEC stats always account for every packet exactly once.
    #[test]
    fn stats_conserve_packets(vectors in 1u64..20_000, ber_exp in 0u32..8, seed: u64) {
        let topo = Topology::single_node();
        let path = shortest_path(&topo, TspId(0), TspId(1)).unwrap();
        let mut occ = LinkOccupancy::new();
        occ.schedule_transfer(&topo, &path, vectors, 0).unwrap();
        let ber = if ber_exp == 0 { 0.0 } else { 10f64.powi(-(ber_exp as i32 + 2)) };
        let mut rng = StdRng::seed_from_u64(seed);
        let (stats, _) = inject_schedule_with(&topo, occ.reservations(), |_| ber, &mut rng);
        prop_assert_eq!(stats.total(), vectors);
        prop_assert!(stats.packet_error_rate() <= 1.0);
    }

    /// Any sequence of distinct failovers within the spare budget keeps
    /// the network connected and the mapping total.
    #[test]
    fn failover_sequences_stay_connected(kills in prop::collection::vec(0u32..8, 0..4)) {
        let mut topo = Topology::rack_dragonfly(2).unwrap();
        let mut plan = SparePlan::per_rack(&topo).unwrap();
        let spares = plan.spares_left();
        let mut killed = Vec::new();
        for k in kills {
            let victim = NodeId(k);
            if killed.contains(&victim) {
                continue;
            }
            match plan.fail_over(&mut topo, victim) {
                Ok(_) => killed.push(victim),
                Err(_) => break, // out of spares or not mapped — both legal
            }
        }
        prop_assert!(killed.len() <= spares);
        prop_assert!(plan.verify_connectivity(&topo), "killed {killed:?}");
        // every logical node still has a healthy physical backing
        for l in 0..plan.logical_nodes() {
            prop_assert!(!topo.is_failed(plan.physical(l).tsps().next().unwrap()));
        }
    }
}
