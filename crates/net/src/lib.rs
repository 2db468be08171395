//! Network simulation: software-scheduled networking (SSN) and its
//! dynamically-routed counterpart.
//!
//! Paper §4 defines SSN: "it replaces the notion of dynamically routing
//! packets as they flow in the network, with *scheduling tensors* at
//! compile time". Concretely, a tensor is a sequence of 320-byte vector
//! flits; the compiler reserves each link for each flit at an exact cycle,
//! and the hardware merely replays the reservations — no arbitration, no
//! queues, no back-pressure (§4.4).
//!
//! * [`ssn`] — the reservation-table scheduler: virtual cut-through
//!   pipelining of vectors along precomputed paths, conflict-free by
//!   construction and verified by [`ssn::validate`].
//! * [`dynamic`] — the conventional baseline of Fig 1/Fig 8: per-port FIFO
//!   queues, round-robin arbitration and hop-by-hop routing, which
//!   produces the latency *variance* the paper's design eliminates.
//! * [`event`] — the deterministic discrete-event core shared by the
//!   dynamic simulator.

#![forbid(unsafe_code)]

pub mod dynamic;
pub mod event;
pub mod pushpull;
pub mod ssn;

pub use ssn::{LinkOccupancy, Reservation, SsnError, TransferSchedule};
