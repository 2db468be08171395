//! Property-based tests for the software-scheduled network.

use proptest::prelude::*;
use tsm_net::ssn::{completion, validate, vector_slot_cycles, waterfill, LinkOccupancy};
use tsm_topology::route::{edge_disjoint_paths, shortest_path};
use tsm_topology::{Topology, TspId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Waterfill conserves flits, never over-assigns empty paths, and
    /// keeps finish times within one slot of each other.
    #[test]
    fn waterfill_invariants(
        latencies in prop::collection::vec(1u64..100_000, 1..10),
        slot in 1u64..200,
        vectors in 0u64..100_000,
    ) {
        let n = waterfill(&latencies, slot, vectors);
        prop_assert_eq!(n.len(), latencies.len());
        prop_assert_eq!(n.iter().sum::<u64>(), vectors);
        let finishes: Vec<u64> = latencies
            .iter()
            .zip(&n)
            .filter(|&(_, &k)| k > 0)
            .map(|(&l, &k)| l + k * slot)
            .collect();
        if finishes.len() > 1 {
            let max = finishes.iter().max().unwrap();
            let min = finishes.iter().min().unwrap();
            prop_assert!(max - min <= slot + latencies.iter().max().unwrap() - latencies.iter().min().unwrap(),
                "finishes badly unbalanced: {finishes:?}");
        }
        // Optimality spot check: no single-flit move improves the makespan
        // by more than one slot.
        if vectors > 0 {
            let makespan = finishes.iter().max().copied().unwrap_or(0);
            for (i, &l) in latencies.iter().enumerate() {
                if n[i] == 0 {
                    // any unused path must not be able to take a flit and
                    // beat the makespan
                    prop_assert!(l + slot + slot >= makespan,
                        "unused path {i} (lat {l}) could trivially improve makespan {makespan}");
                }
            }
        }
    }

    /// Any sequence of transfers scheduled through one occupancy table
    /// validates conflict-free, and arrivals are causally consistent.
    #[test]
    fn schedules_always_validate(
        transfers in prop::collection::vec((0u32..8, 0u32..8, 1u64..500, 0u64..10_000), 1..30),
    ) {
        let topo = Topology::single_node();
        let mut occ = LinkOccupancy::new();
        for &(a, b, vectors, earliest) in &transfers {
            let path = shortest_path(&topo, TspId(a), TspId(b)).unwrap();
            let s = occ.schedule_transfer(&topo, &path, vectors, earliest).unwrap();
            prop_assert!(s.first_inject >= earliest);
            prop_assert!(s.last_arrival >= s.first_inject);
        }
        prop_assert!(validate(occ.reservations()).is_ok());
    }

    /// Spreading never completes later than the single minimal path.
    #[test]
    fn spreading_never_hurts(vectors in 1u64..5_000) {
        let topo = Topology::single_node();
        let paths = edge_disjoint_paths(&topo, TspId(0), TspId(1), 7);
        let mut single = LinkOccupancy::new();
        let s = single.schedule_transfer(&topo, &paths[0], vectors, 0).unwrap();
        let mut spread = LinkOccupancy::new();
        let shards = spread.schedule_spread(&topo, &paths, vectors, 0).unwrap();
        prop_assert!(completion(&shards) <= s.last_arrival,
            "spread {} beat by single {}", completion(&shards), s.last_arrival);
        prop_assert!(validate(spread.reservations()).is_ok());
    }

    /// Transfer duration formula: v flits over one hop = fill + (v)·slot…
    /// exactly `slot·v + wire latency`.
    #[test]
    fn single_hop_duration_exact(vectors in 1u64..10_000, earliest in 0u64..1_000_000) {
        let topo = Topology::single_node();
        let path = shortest_path(&topo, TspId(2), TspId(5)).unwrap();
        let mut occ = LinkOccupancy::new();
        let s = occ.schedule_transfer(&topo, &path, vectors, earliest).unwrap();
        prop_assert_eq!(s.first_inject, earliest);
        prop_assert_eq!(
            s.last_arrival,
            earliest + vectors * vector_slot_cycles() + 228
        );
    }
}
