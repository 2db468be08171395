//! The software-defined tensor streaming multiprocessor, assembled.
//!
//! [`System`] is the public entry point a downstream user programs
//! against: build a system at some scale, hand the compiler a computation
//! graph, and execute the resulting cycle-exact schedule under the
//! runtime model (HAC alignment, PCIe invocation jitter, FEC, software
//! replay).
//!
//! ```
//! use tsm_core::System;
//! use tsm_compiler::graph::{Graph, OpKind};
//! use tsm_compiler::schedule::CompileOptions;
//! use tsm_topology::TspId;
//!
//! let system = System::single_node();
//! let mut graph = Graph::new();
//! graph.add(TspId(0), OpKind::Compute { cycles: 9000 }, vec![]).unwrap();
//! let program = system.compile(&graph, CompileOptions::default()).unwrap();
//! let report = system.execute(&program, 42);
//! assert!(report.succeeded);
//! assert_eq!(report.estimated_cycles, 9000);
//! ```

#![forbid(unsafe_code)]

pub mod cosim;
pub mod flight;
pub mod launch;
pub mod report;
pub mod residency;
pub mod runtime;
pub mod serving;
pub mod system;

pub use cosim::{
    compile_plan, run_transfers, run_transfers_serial, CompiledPlan, CosimError, CosimReport,
    CosimTransfer, ExecArgs, LinkFaultModel, PlanExecutor, TargetedFlip, TransferShape,
};
pub use flight::{FlightConfig, FlightRecorder, IncidentReport, IncidentTrigger};
pub use launch::{
    Admission, AlignmentWindow, AttemptSuccess, CompileDecision, ExecuteFailure, LaunchEngine,
    Recovery,
};
pub use report::ExecutionReport;
pub use residency::{ResidencyManager, ResidencyStats, ResidentInfo};
pub use runtime::{graph_fingerprint, ExecMode, LaunchOutcome, Runtime, RuntimeError, SparePolicy};
pub use serving::{
    AdmitError, BatchRecord, Request, RequestOutcome, ServeConfig, ServeReport, Server,
    TenantStats, WorkQueue,
};
pub use system::{System, SystemConfig, SystemError};
