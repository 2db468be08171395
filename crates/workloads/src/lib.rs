//! The paper's evaluation workloads (§5): distributed matrix
//! multiplication, BERT transformer inference, all-reduce collectives, and
//! Cholesky factorization.
//!
//! Each workload module produces two artifacts:
//!
//! 1. a *computation graph* (`tsm-compiler`'s IR) or analytic plan that the
//!    scheduler turns into a cycle-exact program, and
//! 2. a *numerical reference* (in [`linalg`]) so data-path correctness can
//!    be asserted, not just timing.

#![forbid(unsafe_code)]

pub mod arrivals;
pub mod bert;
pub mod cholesky;
pub mod linalg;
pub mod lstm;
pub mod traffic;
pub mod training;

pub use arrivals::{merge as merge_arrivals, poisson_arrivals, poisson_arrivals_in, ArrivalEvent};
pub use bert::{BertConfig, BertVariant};
pub use cholesky::CholeskyPlan;
