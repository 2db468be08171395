//! Chip-to-chip (C2C) link model: serialization, latency jitter, and
//! forward error correction.
//!
//! Paper §2.3 describes the physical links (4 lanes × 25 Gbps low-swing
//! differential signaling) and §4.5 the reliability strategy: **forward
//! error correction on every link** instead of link-layer retry, because a
//! retry would change packet arrival times and break determinism.
//!
//! The model decomposes as:
//!
//! * [`latency::LatencyModel`] — per-link one-way latency distribution
//!   (base cycles by cable class + bounded jitter). This is the quantity
//!   the HAC characterization procedure of paper §3.1 / Table 2 estimates.
//! * [`fec`] — an honest single-error-correct / double-error-detect code
//!   over the 320-byte payload, fitting in the 4 check bytes of the wire
//!   format (`tsm-isa::packet`).
//! * [`channel::Channel`] — a point-to-point link tying both together with
//!   a bit-error-rate model, producing deterministic delivery times given a
//!   seeded RNG.

#![forbid(unsafe_code)]

pub mod channel;
pub mod fec;
pub mod latency;
pub mod meter;

pub use channel::{Channel, Delivery, Draw};
pub use fec::{FecCodeword, FecOutcome};
pub use latency::{LatencyModel, LatencyStats};
pub use meter::LinkMeter;
