//! The deterministic instruction set of paper Table 1, plus the compute and
//! stream operations the evaluation workloads use.
//!
//! Every instruction has a statically known issue latency: "Execution
//! latency of all instructions is known statically (at compile time) and
//! therefore exposed to the compiler via the ISA" (paper §4). The
//! synchronization instructions (SYNC / NOTIFY / DESKEW / RUNTIME_DESKEW)
//! have *data-dependent* but *bounded and architecturally defined* stall
//! behaviour, modelled by `tsm-sync` and `tsm-chip`.

use crate::timing::HAC_PERIOD;
use crate::{Direction, StreamId};

/// The functional units ("slices") whose instruction-control units issue
/// instructions each cycle (paper §2, §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FunctionalUnit {
    /// Matrix execution module: 320×320 int8 / 160×320 FP16 multiply array.
    Mxm,
    /// Vector execution module: pointwise ALUs.
    Vxm,
    /// Switch execution module: shifts, permutes, transpositions.
    Sxm,
    /// On-chip memory slices (88 slices of 2.5 MiB... modelled in `tsm-mem`).
    Mem,
    /// Chip-to-chip I/O module driving the 11 C2C links.
    C2c,
    /// Instruction control unit (fetch/dispatch; target of SYNC/NOTIFY).
    Icu,
}

impl FunctionalUnit {
    /// All functional units in issue order.
    pub const ALL: [FunctionalUnit; 6] = [
        FunctionalUnit::Mxm,
        FunctionalUnit::Vxm,
        FunctionalUnit::Sxm,
        FunctionalUnit::Mem,
        FunctionalUnit::C2c,
        FunctionalUnit::Icu,
    ];

    /// Dense index into per-unit tables, matching [`FunctionalUnit::ALL`]
    /// order.
    pub const fn index(self) -> usize {
        match self {
            FunctionalUnit::Mxm => 0,
            FunctionalUnit::Vxm => 1,
            FunctionalUnit::Sxm => 2,
            FunctionalUnit::Mem => 3,
            FunctionalUnit::C2c => 4,
            FunctionalUnit::Icu => 5,
        }
    }
}

/// One instruction of the scale-out TSP ISA.
///
/// The first seven variants are exactly paper Table 1; the rest are the
/// compute/stream operations the evaluation section exercises (§5.2–§5.5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instruction {
    // ---- Table 1: determinism support -------------------------------------
    /// Intra-chip pause: park this functional unit until a NOTIFY arrives.
    Sync,
    /// Intra-chip global signal restarting all parked functional units on
    /// the same (known-latency) cycle.
    Notify,
    /// Pause issue until the local HAC next overflows (epoch boundary).
    Deskew,
    /// Delay for `target_cycles` ± δt where δt = HAC − SAC, re-aligning
    /// local time with global time (paper §3.3).
    RuntimeDeskew {
        /// Nominal stall length in cycles; the actual stall absorbs drift.
        /// 32 bits, as the instruction word's immediate holds it.
        target_cycles: u32,
    },
    /// Send a notification vector to a child TSP over a C2C link.
    Transmit {
        /// Local C2C port the notification leaves on.
        port: u8,
    },
    /// Consume a vector from a C2C link into a stream.
    Receive {
        /// Local C2C port the vector arrives on.
        port: u8,
        /// Stream the payload is steered onto.
        stream: StreamId,
    },

    // ---- Data movement -----------------------------------------------------
    /// Send one vector from a stream out a C2C port (scheduled, not routed).
    Send {
        /// Local C2C port.
        port: u8,
        /// Source stream.
        stream: StreamId,
    },
    /// Read one vector from a memory slice onto a stream.
    Read {
        /// Memory slice index (0..88).
        slice: u8,
        /// Address offset within the slice.
        offset: u16,
        /// Destination stream.
        stream: StreamId,
        /// Direction the stream flows.
        dir: Direction,
    },
    /// Write one vector from a stream into a memory slice.
    Write {
        /// Memory slice index (0..88).
        slice: u8,
        /// Address offset within the slice.
        offset: u16,
        /// Source stream.
        stream: StreamId,
    },

    // ---- Compute -----------------------------------------------------------
    /// Load one weight row from a stream into the MXM array (K of these
    /// install a [K×320] tile; the functional model works at FP32-lane
    /// granularity, so up to 80 rows).
    InstallWeight {
        /// Stream carrying the weight row.
        stream: StreamId,
    },
    /// Multiply on the MXM: one [1×K]×[K×320] sub-op against the
    /// currently installed weights.
    MatMul {
        /// Stream feeding activations.
        input: StreamId,
        /// Stream receiving the result (flows inward).
        output: StreamId,
    },
    /// Pointwise vector ALU operation on the VXM.
    VectorOp {
        /// Opcode selector (add, mul, rsqrt-approx, …).
        op: VectorOpcode,
        /// Input streams.
        a: StreamId,
        /// Second operand (ignored by unary ops).
        b: StreamId,
        /// Destination stream.
        dest: StreamId,
    },
    /// Shift/permute/transpose on the SXM.
    Permute {
        /// Input stream.
        input: StreamId,
        /// Output stream.
        output: StreamId,
    },
    /// Issue nothing this cycle (explicit bubble; schedules are total).
    Nop,
}

/// Pointwise opcodes supported by the VXM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VectorOpcode {
    /// Lane-wise addition.
    Add,
    /// Lane-wise subtraction.
    Sub,
    /// Lane-wise multiply.
    Mul,
    /// Reciprocal square root approximation (paper §5.5 Cholesky kernel).
    Rsqrt,
    /// Broadcast lane 0 across the vector ("splat", paper §5.5).
    Splat,
}

impl Instruction {
    /// The functional unit this instruction issues on.
    pub fn unit(&self) -> FunctionalUnit {
        match self {
            Instruction::Sync
            | Instruction::Notify
            | Instruction::Deskew
            | Instruction::RuntimeDeskew { .. }
            | Instruction::Nop => FunctionalUnit::Icu,
            Instruction::Transmit { .. }
            | Instruction::Receive { .. }
            | Instruction::Send { .. } => FunctionalUnit::C2c,
            Instruction::Read { .. } | Instruction::Write { .. } => FunctionalUnit::Mem,
            Instruction::InstallWeight { .. } | Instruction::MatMul { .. } => FunctionalUnit::Mxm,
            Instruction::VectorOp { .. } => FunctionalUnit::Vxm,
            Instruction::Permute { .. } => FunctionalUnit::Sxm,
        }
    }

    /// Fixed issue-to-retire latency in cycles for instructions whose cost
    /// is data-independent. Stalling instructions (SYNC, DESKEW,
    /// RUNTIME_DESKEW) return their *minimum* latency; their actual stall is
    /// bounded by [`Instruction::max_latency`].
    pub fn min_latency(&self) -> u64 {
        match self {
            Instruction::Sync => 1,
            Instruction::Notify => 8, // chip-wide control propagation, known latency
            Instruction::Deskew => 1,
            Instruction::RuntimeDeskew { target_cycles } => u64::from(*target_cycles),
            Instruction::Transmit { .. } => 1,
            Instruction::Receive { .. } => 1,
            Instruction::Send { .. } => 1,
            Instruction::Read { .. } => 5,
            Instruction::Write { .. } => 5,
            Instruction::InstallWeight { .. } => 1, // one row per cycle
            Instruction::MatMul { .. } => 1,        // pipelined: 1 sub-op issue per cycle
            Instruction::VectorOp { .. } => 4,
            Instruction::Permute { .. } => 2,
            Instruction::Nop => 1,
        }
    }

    /// Upper bound on latency, used by the compiler's worst-case analysis.
    pub fn max_latency(&self) -> u64 {
        match self {
            // DESKEW waits at most one full epoch.
            Instruction::Deskew => HAC_PERIOD,
            // RUNTIME_DESKEW absorbs at most ±1 epoch of drift.
            Instruction::RuntimeDeskew { target_cycles } => u64::from(*target_cycles) + HAC_PERIOD,
            // SYNC waits for a NOTIFY; bounded by the program, not the ISA.
            Instruction::Sync => u64::MAX,
            other => other.min_latency(),
        }
    }

    /// True for the synchronization instructions of paper Table 1.
    pub fn is_sync_support(&self) -> bool {
        matches!(
            self,
            Instruction::Sync
                | Instruction::Notify
                | Instruction::Deskew
                | Instruction::RuntimeDeskew { .. }
                | Instruction::Transmit { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u8) -> StreamId {
        StreamId::new(n).unwrap()
    }

    #[test]
    fn table1_instructions_issue_on_expected_units() {
        assert_eq!(Instruction::Sync.unit(), FunctionalUnit::Icu);
        assert_eq!(Instruction::Notify.unit(), FunctionalUnit::Icu);
        assert_eq!(Instruction::Deskew.unit(), FunctionalUnit::Icu);
        assert_eq!(
            Instruction::RuntimeDeskew { target_cycles: 10 }.unit(),
            FunctionalUnit::Icu
        );
        assert_eq!(
            Instruction::Transmit { port: 0 }.unit(),
            FunctionalUnit::C2c
        );
    }

    #[test]
    fn compute_instructions_route_to_slices() {
        assert_eq!(
            Instruction::MatMul {
                input: sid(0),
                output: sid(1)
            }
            .unit(),
            FunctionalUnit::Mxm
        );
        assert_eq!(
            Instruction::VectorOp {
                op: VectorOpcode::Add,
                a: sid(0),
                b: sid(1),
                dest: sid(2)
            }
            .unit(),
            FunctionalUnit::Vxm
        );
        assert_eq!(
            Instruction::Permute {
                input: sid(0),
                output: sid(1)
            }
            .unit(),
            FunctionalUnit::Sxm
        );
    }

    #[test]
    fn deskew_stall_bounded_by_epoch() {
        assert_eq!(Instruction::Deskew.max_latency(), HAC_PERIOD);
        assert!(Instruction::Deskew.min_latency() <= Instruction::Deskew.max_latency());
    }

    #[test]
    fn runtime_deskew_absorbs_at_most_one_epoch() {
        let i = Instruction::RuntimeDeskew {
            target_cycles: 1000,
        };
        assert_eq!(i.min_latency(), 1000);
        assert_eq!(i.max_latency(), 1000 + HAC_PERIOD);
    }

    #[test]
    fn sync_support_classification() {
        assert!(Instruction::Sync.is_sync_support());
        assert!(Instruction::Notify.is_sync_support());
        assert!(!Instruction::Nop.is_sync_support());
        assert!(!Instruction::Send {
            port: 0,
            stream: sid(0)
        }
        .is_sync_support());
    }

    #[test]
    fn fixed_latency_instructions_have_tight_bounds() {
        let i = Instruction::Read {
            slice: 0,
            offset: 0,
            stream: sid(0),
            dir: crate::Direction::East,
        };
        assert_eq!(i.min_latency(), i.max_latency());
    }
}
