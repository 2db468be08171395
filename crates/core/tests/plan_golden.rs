//! Golden plan pins: `compile_plan` output is pinned byte for byte on two
//! fixed workloads, so any change to routing, link/unit reservation or
//! lowering that alters a plan fails here rather than only in the
//! benchmark. The digests are FNV-1a over `CompiledPlan::to_json()`.

use std::collections::HashSet;
use tsm_core::cosim::{compile_plan, TransferShape};
use tsm_topology::{Topology, TspId};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Two fully connected nodes; every TSP sources one flow to the first
/// unused TSP on the other node it has no cable to, so each flow forwards
/// through an intermediate chip.
fn cosim16() -> (Topology, Vec<TransferShape>) {
    let topo = Topology::fully_connected_nodes(2).unwrap();
    let mut taken: HashSet<TspId> = HashSet::new();
    let shapes = (0..16u32)
        .map(|i| {
            let from = TspId(i);
            let to = topo
                .tsps()
                .find(|&t| {
                    t.node() != from.node()
                        && !taken.contains(&t)
                        && topo.links_between(from, t).is_empty()
                })
                .unwrap();
            taken.insert(to);
            TransferShape {
                from,
                to,
                src_slice: 0,
                src_offset: (i * 32) as u16,
                dst_slice: 2,
                dst_offset: (i * 32) as u16,
                vectors: 8 + i % 4,
            }
        })
        .collect();
    (topo, shapes)
}

/// A 4-rack (288-chip) dragonfly where TSP `i` streams two vectors to TSP
/// `i + N/2`.
fn half_stride_4_racks() -> (Topology, Vec<TransferShape>) {
    let topo = Topology::rack_dragonfly(4).unwrap();
    let half = (topo.num_tsps() / 2) as u32;
    let shapes = (0..half)
        .map(|i| TransferShape {
            from: TspId(i),
            to: TspId(i + half),
            src_slice: 0,
            src_offset: 0,
            dst_slice: 2,
            dst_offset: 0,
            vectors: 2,
        })
        .collect();
    (topo, shapes)
}

fn plan_digest((topo, shapes): (Topology, Vec<TransferShape>)) -> u64 {
    fnv1a(compile_plan(&topo, &shapes).unwrap().to_json().as_bytes())
}

#[test]
fn cosim16_plan_is_pinned() {
    assert_eq!(
        plan_digest(cosim16()),
        0x9f76_64d6_1556_1334,
        "cosim-16 plan digest moved"
    );
}

#[test]
fn half_stride_288_plan_is_pinned() {
    assert_eq!(
        plan_digest(half_stride_4_racks()),
        0x8454_d5d6_5e35_f71d,
        "288-chip half-stride plan digest moved"
    );
}
