//! Property-based tests for topology construction and routing.

use proptest::prelude::*;
use std::collections::HashSet;
use tsm_topology::route::{diameter_bound, edge_disjoint_paths, shortest_path};
use tsm_topology::{Topology, TspId};

fn arbitrary_pair(n: usize) -> impl Strategy<Value = (u32, u32)> {
    (0..n as u32, 0..n as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every pair in the fully-connected-node regime routes within 3 hops,
    /// and the path is well-formed (continuous, endpoint-correct).
    #[test]
    fn full_connect_routes_within_bound(
        nodes in 2usize..12,
        pair in arbitrary_pair(96),
    ) {
        let topo = Topology::fully_connected_nodes(nodes).unwrap();
        let n = topo.num_tsps() as u32;
        let (a, b) = (pair.0 % n, pair.1 % n);
        let p = shortest_path(&topo, TspId(a), TspId(b)).unwrap();
        prop_assert!(p.hops() <= diameter_bound(&topo));
        prop_assert_eq!(p.source(), TspId(a));
        prop_assert_eq!(p.dest(), TspId(b));
        prop_assert_eq!(p.tsps.len(), p.links.len() + 1);
        for (i, &lid) in p.links.iter().enumerate() {
            let l = topo.link(lid);
            prop_assert!(l.touches(p.tsps[i]) && l.touches(p.tsps[i + 1]));
        }
    }

    /// Rack-Dragonfly routes stay within the TSP-level bound.
    #[test]
    fn dragonfly_routes_within_bound(
        racks in 2usize..5,
        pair in arbitrary_pair(360),
    ) {
        let topo = Topology::rack_dragonfly(racks).unwrap();
        let n = topo.num_tsps() as u32;
        let (a, b) = (pair.0 % n, pair.1 % n);
        let p = shortest_path(&topo, TspId(a), TspId(b)).unwrap();
        prop_assert!(p.hops() <= diameter_bound(&topo));
    }

    /// Edge-disjoint paths never share a link and are sorted by length.
    #[test]
    fn edge_disjoint_paths_are_disjoint(
        nodes in 2usize..8,
        pair in arbitrary_pair(64),
        k in 1usize..8,
    ) {
        let topo = Topology::fully_connected_nodes(nodes).unwrap();
        let n = topo.num_tsps() as u32;
        let (a, b) = (pair.0 % n, pair.1 % n);
        prop_assume!(a != b);
        let paths = edge_disjoint_paths(&topo, TspId(a), TspId(b), k);
        prop_assert!(!paths.is_empty());
        prop_assert!(paths.len() <= k);
        let mut seen = HashSet::new();
        for p in &paths {
            for &l in &p.links {
                prop_assert!(seen.insert(l), "link shared between paths");
            }
        }
        for w in paths.windows(2) {
            prop_assert!(w[0].hops() <= w[1].hops(), "paths must be shortest-first");
        }
    }

    /// Port assignments are globally unique in every constructible regime.
    #[test]
    fn ports_unique_everywhere(nodes in 2usize..16) {
        let topo = Topology::fully_connected_nodes(nodes).unwrap();
        let mut used = HashSet::new();
        for l in topo.links() {
            prop_assert!(used.insert((l.a, l.a_port)));
            prop_assert!(used.insert((l.b, l.b_port)));
        }
    }

    /// The O(1) port index agrees with a linear scan over the link table on
    /// arbitrary generated topologies, for every (TSP, port) pair — wired
    /// or not.
    #[test]
    fn port_index_agrees_with_linear_scan(
        regime in 0usize..3,
        size in 2usize..10,
    ) {
        let topo = match regime {
            0 => Topology::fully_connected_nodes(size).unwrap(),
            1 => Topology::rack_dragonfly(2 + size % 3).unwrap(),
            _ => if size % 2 == 0 { Topology::single_node() } else { Topology::torus_node() },
        };
        for t in topo.tsps() {
            for port in 0..16u8 {
                // the old cosim peer_of/link_between scan, verbatim
                let scanned = topo.links().iter().enumerate().find_map(|(i, l)| {
                    if l.a == t && l.a_port == port {
                        Some((tsm_topology::LinkId(i as u32), l.b, l.b_port))
                    } else if l.b == t && l.b_port == port {
                        Some((tsm_topology::LinkId(i as u32), l.a, l.a_port))
                    } else {
                        None
                    }
                });
                prop_assert_eq!(topo.port_peer(t, port), scanned);
            }
        }
    }

    /// Id arithmetic roundtrips: every TSP is inside its node and rack.
    #[test]
    fn id_arithmetic_consistent(raw in 0u32..10_440) {
        let t = TspId(raw);
        let node = t.node();
        prop_assert!(node.tsps().any(|x| x == t));
        prop_assert_eq!(node.rack(), t.rack());
        prop_assert!(t.slot() < 8);
    }
}
