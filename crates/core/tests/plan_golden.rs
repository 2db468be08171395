//! Golden plan pins: `compile_plan` output is pinned byte for byte on five
//! fixed workloads, so any change to routing, link/unit reservation,
//! lowering or shard ranking that alters a plan fails here rather than
//! only in the benchmark. The digests are FNV-1a over
//! `CompiledPlan::to_json()`. The same workloads fix which side of the
//! executor's grain the benchmark's plans fall on.

use std::collections::HashSet;
use tsm_core::cosim::exec::EXEC_GRAIN;
use tsm_core::cosim::{compile_plan, ExecArgs, PlanExecutor, TransferShape};
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

/// A `racks`-rack dragonfly where TSP `i` streams two vectors to TSP
/// `i + N/2`.
fn half_stride(racks: usize) -> (Topology, Vec<TransferShape>) {
    let topo = Topology::rack_dragonfly(racks).unwrap();
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

/// BERT-Large's pipeline on four fully connected nodes: three
/// stage-to-stage transfers of one batch's activations, `vectors` each
/// (2,458 at batch 1, 19,661 at batch 8), then a 100-vector offload to the
/// next node from just past them. Chips 1 and 2 both receive one stage's
/// activations and send their own on, so their Mem windows from two long
/// transfers interleave.
fn bert_pipeline_with_offload(vectors: u32) -> (Topology, Vec<TransferShape>) {
    let topo = Topology::fully_connected_nodes(4).unwrap();
    let shape = |from, to, src_offset, vectors| TransferShape {
        from: TspId(from),
        to: TspId(to),
        src_slice: 0,
        src_offset,
        dst_slice: 1,
        dst_offset: 0,
        vectors,
    };
    let offload = u16::try_from(vectors).unwrap();
    let shapes = vec![
        shape(0, 1, 0, vectors),
        shape(1, 2, 0, vectors),
        shape(2, 3, 0, vectors),
        shape(0, 12, offload, 100),
    ];
    (topo, shapes)
}

fn plan_digest((topo, shapes): (Topology, Vec<TransferShape>)) -> u64 {
    fnv1a(compile_plan(&topo, &shapes).unwrap().to_json().as_bytes())
}

#[test]
fn cosim16_plan_is_pinned() {
    assert_eq!(
        plan_digest(cosim16()),
        0xeae0_aace_3416_0752,
        "cosim-16 plan digest moved"
    );
}

#[test]
fn half_stride_288_plan_is_pinned() {
    assert_eq!(
        plan_digest(half_stride(4)),
        0x1048_cd66_c4fc_e8f4,
        "288-chip half-stride plan digest moved"
    );
}

/// 576 distinct pairs, so compile routes them on two threads wherever two
/// are available, on a fabric dense enough that the chip-unit search
/// takes 1,224 trials, where stepping one conflicting window at a time
/// took 13,556.
#[test]
fn half_stride_1152_plan_is_pinned() {
    assert_eq!(
        plan_digest(half_stride(16)),
        0xe60a_8207_d907_4b2a,
        "1,152-chip half-stride plan digest moved"
    );
}

#[test]
fn bert_pipeline_plan_is_pinned() {
    let (topo, shapes) = bert_pipeline_with_offload(2_458);
    let plan = compile_plan(&topo, &shapes).unwrap();
    assert_eq!(plan.instructions, 30_296);
    assert_eq!(plan.arrivals, [59_225, 59_225, 59_225, 3_342]);
    assert_eq!(
        fnv1a(plan.to_json().as_bytes()),
        0x2787_13f0_c883_70fd,
        "BERT pipeline plan digest moved"
    );
}

/// The batch-8 pipeline's trains are 19,661 vectors long, eight times the
/// batch-1 pin's, so a chip-unit search or lowering that is exact only on
/// short trains fails here.
#[test]
fn bert_batch8_pipeline_plan_is_pinned() {
    let (topo, shapes) = bert_pipeline_with_offload(19_661);
    let plan = compile_plan(&topo, &shapes).unwrap();
    assert_eq!(plan.instructions, 236_732);
    assert_eq!(plan.arrivals, [472_097, 472_097, 472_097, 3_342]);
    assert_eq!(
        fnv1a(plan.to_json().as_bytes()),
        0x28a3_8f82_6150_80f7,
        "BERT batch-8 pipeline plan digest moved"
    );
}

/// Dispatch by plan work: at the automatic width, cosim-16's plan runs on
/// the calling thread, with no scope, while the BERT pipelines the serving
/// workloads execute split, down to the smallest, batch 1 without the
/// offload.
#[test]
fn only_plans_of_a_grain_or_more_split_at_the_automatic_width() {
    let (topo, shapes) = cosim16();
    let small = compile_plan(&topo, &shapes).unwrap();
    assert_eq!(small.instructions, 1_216);
    assert_eq!(ExecArgs::default().width(&small), 1);

    let (topo, mut shapes) = bert_pipeline_with_offload(2_458);
    shapes.truncate(3);
    let smallest_served = compile_plan(&topo, &shapes).unwrap();
    assert_eq!(smallest_served.instructions, 29_496);
    assert!(smallest_served.instructions >= EXEC_GRAIN);
    assert_eq!(
        ExecArgs::default().width(&smallest_served),
        PlanExecutor::new().resolved_threads()
    );
}
