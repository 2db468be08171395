//! Property-based tests for partitioning and scheduling.

use proptest::prelude::*;
use tsm_chip::mxm::GemmShape;
use tsm_compiler::balance::{partition_stages, LayerCost};
use tsm_compiler::graph::{Graph, OpKind};
use tsm_compiler::partition::{column_split, row_split};
use tsm_compiler::schedule::{compile, CompileOptions, OptLevel};
use tsm_isa::ElemType;
use tsm_net::ssn::validate;
use tsm_topology::{Topology, TspId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Splits conserve FLOPs and dimensions for every shape and count.
    #[test]
    fn splits_conserve(m in 1u64..2000, n in 1u64..2000, l in 1u64..2000, x in 1u64..16) {
        let shape = GemmShape::new(m, n, l);
        if x <= l {
            let cols = column_split(shape, x);
            prop_assert_eq!(cols.iter().map(|c| c.l).sum::<u64>(), l);
            prop_assert_eq!(cols.iter().map(|c| c.flops()).sum::<u64>(), shape.flops());
            prop_assert!(cols.iter().all(|c| c.m == m && c.n == n));
        }
        if x <= n {
            let rows = row_split(shape, x);
            prop_assert_eq!(rows.iter().map(|r| r.n).sum::<u64>(), n);
            prop_assert_eq!(rows.iter().map(|r| r.flops()).sum::<u64>(), shape.flops());
        }
    }

    /// Compilation of random chain graphs: dependencies respected, span
    /// equals the max op end, network schedule validates, and the
    /// spatial-aware schedule is never slower than the FLOPs-only one.
    #[test]
    fn random_chains_compile_correctly(
        ops in prop::collection::vec((0u32..8, 0u64..50_000, prop::bool::ANY), 1..25),
    ) {
        let topo = Topology::single_node();
        let build = || {
            let mut g = Graph::new();
            let mut prev = None;
            for &(dev, size, is_transfer) in &ops {
                let deps: Vec<_> = prev.into_iter().collect();
                let kind = if is_transfer {
                    OpKind::Transfer {
                        to: TspId((dev + 1) % 8),
                        bytes: size + 1,
                        allow_nonminimal: true,
                    }
                } else {
                    OpKind::Compute { cycles: size }
                };
                prev = Some(g.add(TspId(dev), kind, deps).unwrap());
            }
            g
        };
        let g = build();
        let fast = compile(&g, &topo, CompileOptions::default()).unwrap();
        let slow = compile(
            &g,
            &topo,
            CompileOptions { opt: OptLevel::FlopsOnly, max_spread_paths: 7 },
        )
        .unwrap();
        prop_assert!(validate(fast.occupancy.reservations()).is_ok());
        // dependencies respected
        for (i, node) in g.nodes().iter().enumerate() {
            for d in &node.deps {
                prop_assert!(fast.op_start[i] >= fast.op_end[d.index()]);
            }
        }
        prop_assert_eq!(fast.span_cycles, *fast.op_end.iter().max().unwrap());
        prop_assert!(fast.span_cycles <= slow.span_cycles);
    }

    /// Stage partition covers all layers exactly once, and its beat is a
    /// true upper bound on every stage's cost.
    #[test]
    fn stage_partition_covers(
        costs in prop::collection::vec((1u64..1_000_000, 0u64..5_000_000), 2..40),
        stages in 1usize..8,
    ) {
        let layers: Vec<LayerCost> = costs
            .iter()
            .map(|&(c, a)| LayerCost { compute_cycles: c, movement_cycles: c / 10, activation_bytes: a })
            .collect();
        prop_assume!(stages <= layers.len());
        let plan = partition_stages(&layers, stages, OptLevel::SpatialAware);
        let ranges = plan.ranges(layers.len());
        prop_assert_eq!(ranges.len(), stages);
        prop_assert_eq!(ranges[0].0, 0);
        prop_assert_eq!(ranges.last().unwrap().1, layers.len());
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0, "stages must tile the layer range");
        }
        for (s, &(lo, hi)) in ranges.iter().enumerate() {
            prop_assert!(lo < hi, "no empty stages");
            let cost = tsm_compiler::balance::stage_cost(
                &layers, lo, hi, s + 1 == stages, OptLevel::SpatialAware,
            );
            prop_assert!(cost <= plan.beat_cycles);
        }
    }

    /// GEMM utilization is always in (0, 1] and cycles cover the work.
    #[test]
    fn gemm_model_bounds(m in 1u64..5000, n in 1u64..5000, l in 1u64..5000) {
        let t = tsm_chip::mxm::gemm_timing(GemmShape::new(m, n, l), ElemType::F16);
        prop_assert!(t.utilization > 0.0 && t.utilization <= 1.0);
        prop_assert!(t.cycles >= 1);
        // cycles x peak >= useful flops
        let spec = tsm_chip::ChipSpec::production();
        let capacity = t.cycles as f64 * spec.peak_flops_per_cycle(ElemType::F16);
        prop_assert!(capacity >= GemmShape::new(m, n, l).flops() as f64 * 0.999);
    }
}
