//! Fault tolerance: FEC statistics and N+1 hot-spare failover (paper
//! §4.5, Fig 6).
//!
//! The paper's reliability strategy has three tiers:
//!
//! 1. **FEC on every link** corrects single-bit errors in situ and detects
//!    multi-bit bursts ([`inject`] drives a whole schedule's worth of
//!    transmissions through the `tsm-link` codec and tallies outcomes);
//! 2. **software replay**: on an uncorrectable error the runtime replays
//!    the inference to distinguish transient from persistent faults (the
//!    replay loops live in `tsm-core`'s `System::execute` and launch
//!    engine, which call [`inject`] once per attempt);
//! 3. **N+1 hot spares**: a spare node per rack (11 % overhead) or per
//!    system (3 %) replaces a failed node, exploiting the Dragonfly's
//!    edge/node symmetry so the network stays fully connected
//!    ([`spare`]).

#![forbid(unsafe_code)]

pub mod inject;
pub mod spare;

pub use inject::FecStats;
pub use spare::SparePlan;
