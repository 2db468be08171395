//! Property-based tests for the chip executor and VXM semantics.

use proptest::prelude::*;
use tsm_chip::exec::{ChipProgram, ChipSim};
use tsm_chip::vxm::{execute, from_f32_lanes, rsqrt_approx, to_f32_lanes, F32_LANES};
use tsm_isa::instr::{Instruction, VectorOpcode};
use tsm_isa::{Direction, StreamId, Vector};

fn lanes_strategy() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1.0e6f32..1.0e6, F32_LANES)
}

proptest! {
    /// FP32 lane packing roundtrips for arbitrary lane values.
    #[test]
    fn lane_roundtrip(lanes in lanes_strategy()) {
        let mut arr = [0f32; F32_LANES];
        arr.copy_from_slice(&lanes);
        let v = from_f32_lanes(&arr);
        prop_assert_eq!(to_f32_lanes(&v).to_vec(), lanes);
    }

    /// Add/Sub are inverse operations lane-wise.
    #[test]
    fn add_sub_inverse(a in lanes_strategy(), b in lanes_strategy()) {
        let mut la = [0f32; F32_LANES];
        la.copy_from_slice(&a);
        let mut lb = [0f32; F32_LANES];
        lb.copy_from_slice(&b);
        let va = from_f32_lanes(&la);
        let vb = from_f32_lanes(&lb);
        let sum = execute(VectorOpcode::Add, &va, &vb);
        let back = execute(VectorOpcode::Sub, &sum, &vb);
        for ((x, y), bv) in to_f32_lanes(&back).iter().zip(a.iter()).zip(b.iter()) {
            // fp32 rounding: the absorbed bits scale with |b| (catastrophic
            // cancellation when |b| >> |a| is correct float behaviour)
            let tol = (y.abs() + bv.abs()) * 1e-6 + 1e-6;
            prop_assert!((x - y).abs() <= tol, "x={x} y={y} b={bv}");
        }
    }

    /// rsqrt approximation is within 1e-5 relative error over 6 decades.
    #[test]
    fn rsqrt_accuracy(x in 1e-6f32..1e6) {
        let got = rsqrt_approx(x);
        let want = 1.0 / x.sqrt();
        prop_assert!(((got - want) / want).abs() < 1e-5, "x={x} got={got} want={want}");
    }

    /// A generated read→permute→write chain executes and moves the exact
    /// bytes for any payload and any legal slice/offset.
    #[test]
    fn read_permute_write_moves_exact_bytes(
        payload in prop::collection::vec(any::<u8>(), 320),
        src_slice in 0u8..88,
        dst_slice in 0u8..88,
        offset in 0u16..4096,
    ) {
        let v = Vector::from_slice(&payload).unwrap();
        let mut sim = ChipSim::new();
        sim.preload(src_slice, offset, v.clone());
        let s0 = StreamId::new(0).unwrap();
        let s1 = StreamId::new(1).unwrap();
        let prog = ChipProgram::new()
            .at(0, Instruction::Read { slice: src_slice, offset, stream: s0, dir: Direction::East })
            .at(10, Instruction::Permute { input: s0, output: s1 })
            .at(20, Instruction::Write { slice: dst_slice, offset, stream: s1 });
        sim.run(&prog).unwrap();
        prop_assert_eq!(sim.sram(dst_slice, offset), Some(&v));
    }

    /// Back-to-back sends at any legal spacing ≥1 cycle execute; the
    /// emissions preserve order and payloads.
    #[test]
    fn send_train_preserves_order(
        count in 1usize..40,
        spacing in 1u64..100,
        port in 0u8..11,
    ) {
        let mut sim = ChipSim::new();
        let s = StreamId::new(3).unwrap();
        let mut prog = ChipProgram::new();
        for i in 0..count {
            let t = 10 + i as u64 * (spacing + 5);
            prog.push(t, Instruction::Read {
                slice: 0, offset: i as u16, stream: s, dir: Direction::East,
            });
            prog.push(t + 5, Instruction::Send { port, stream: s });
        }
        for i in 0..count {
            sim.preload(0, i as u16, Vector::splat(i as u8));
        }
        sim.run(&prog).unwrap();
        prop_assert_eq!(sim.emissions().len(), count);
        for (i, e) in sim.emissions().iter().enumerate() {
            prop_assert_eq!(e.vector.as_ref(), &Vector::splat(i as u8));
            prop_assert_eq!(e.port, port);
        }
    }
}
