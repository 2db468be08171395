//! Single-TSP model: functional slices, streams, and deterministic
//! execution (paper §2, §5.2).
//!
//! The TSP organizes its functional units as SIMD "slices" operating on
//! 320-byte vectors flowing along stream registers. All instruction timing
//! is static, so a chip program is a *schedule*, not a dynamic trace. The
//! crate provides:
//!
//! * [`spec`] — the chip's capacity constants (peak FLOPs, streams,
//!   frequency),
//! * [`mxm`] — the matrix-execution-module timing model: a GEMM decomposes
//!   into `[1×K]×[K×320]` sub-operations with K = 160 (FP16) or 320 (int8),
//!   retiring 2 FP16 / 4 int8 sub-ops per cycle (paper §5.2). Every
//!   throughput figure in the paper's evaluation derives from this model.
//! * [`vxm`] — pointwise vector ALU semantics on FP32 lanes (the Cholesky
//!   kernel of §5.5 runs on these),
//! * [`exec`] — a deterministic chip executor: per-functional-unit
//!   instruction queues with SYNC/NOTIFY/DESKEW semantics, SRAM and stream
//!   state, and static-hazard detection.

#![forbid(unsafe_code)]

pub mod exec;
pub mod gemm_program;
pub mod mxm;
pub mod spec;
pub mod vxm;

pub use exec::{ChipProgram, ChipSim, ExecError, TimedInstruction};
pub use mxm::{GemmShape, GemmTiming};
pub use spec::ChipSpec;
